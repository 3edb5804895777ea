package tevot_test

import (
	"fmt"
	"log"

	"tevot"
)

// Example demonstrates the full TEVoT flow: characterize a functional
// unit at an operating corner, train the delay model, and classify
// timing errors at an overclocked capture period.
func Example() {
	fu, err := tevot.NewFunctionalUnit(tevot.IntAdd32)
	if err != nil {
		log.Fatal(err)
	}
	corner := tevot.Corner{V: 0.85, T: 50}
	train := tevot.RandomWorkload(tevot.IntAdd32, 5000, 1)

	base, err := tevot.CalibrateBaseClock(fu, corner, train)
	if err != nil {
		log.Fatal(err)
	}
	trace, err := tevot.CharacterizeWithSpeedups(fu, corner, train, []float64{0.10})
	if err != nil {
		log.Fatal(err)
	}
	model, err := tevot.Train(tevot.IntAdd32, []*tevot.Trace{trace}, tevot.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	test := tevot.RandomWorkload(tevot.IntAdd32, 1000, 2)
	errs, err := model.Errors(corner, test, base/1.10)
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for _, e := range errs {
		if e {
			n++
		}
	}
	fmt.Printf("predicted %d erroneous cycles of %d\n", n, len(errs))
}

// ExampleModel_PredictDelay shows a point query: the predicted dynamic
// delay of one operand transition, reusable against any clock period.
func ExampleModel_PredictDelay() {
	fu, err := tevot.NewFunctionalUnit(tevot.IntAdd32)
	if err != nil {
		log.Fatal(err)
	}
	corner := tevot.Corner{V: 0.90, T: 25}
	train := tevot.RandomWorkload(tevot.IntAdd32, 2000, 1)
	trace, err := tevot.Characterize(fu, corner, train, nil)
	if err != nil {
		log.Fatal(err)
	}
	model, err := tevot.Train(tevot.IntAdd32, []*tevot.Trace{trace}, tevot.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	cur := tevot.OperandPair{A: 0x0000FFFF, B: 1}
	prev := tevot.OperandPair{A: 0, B: 0}
	d := model.PredictDelay(corner, cur, prev)
	fmt.Printf("plausible delay: %v\n", d > 0)
	// Output: plausible delay: true
}

// ExampleTableIGrid enumerates the paper's operating-condition sweep.
func ExampleTableIGrid() {
	grid := tevot.TableIGrid()
	corners := grid.Corners()
	fmt.Printf("%d corners, first %v, last %v\n", len(corners), corners[0], corners[len(corners)-1])
	// Output: 100 corners, first (0.81V,0°C), last (1.00V,100°C)
}
