// Voltage-scaling guardband study: the motivating use case of the
// paper's introduction. For each supply voltage we compare three clock
// policies on the FP multiplier:
//
//   - the STA guardband (clock at the static critical path — what a
//     conservative sign-off would require),
//   - the measured error-free clock (max dynamic delay of the actual
//     workload), and
//   - an aggressive 10 % overclock beyond that, with TEVoT predicting
//     which cycles err so the system could scale back adaptively.
//
// The gap between the first two columns is the guardband the paper says
// conservative design wastes; the third column shows how well TEVoT
// tracks the resulting errors.
package main

import (
	"fmt"
	"log"

	"tevot"
)

func main() {
	log.SetFlags(0)

	fu, err := tevot.NewFunctionalUnit(tevot.FPMul32)
	if err != nil {
		log.Fatal(err)
	}
	train := tevot.RandomWorkload(tevot.FPMul32, 1200, 1)
	test := tevot.RandomWorkload(tevot.FPMul32, 500, 2)

	fmt.Println("V      STA clock  measured clock  guardband  TER@+10%  TEVoT acc")
	for _, v := range []float64{0.81, 0.85, 0.90, 0.95, 1.00} {
		corner := tevot.Corner{V: v, T: 50}
		static, err := fu.Static(corner)
		if err != nil {
			log.Fatal(err)
		}
		base, err := tevot.CalibrateBaseClock(fu, corner, train)
		if err != nil {
			log.Fatal(err)
		}
		trTrain, err := tevot.CharacterizeWithSpeedups(fu, corner, train, []float64{0.10})
		if err != nil {
			log.Fatal(err)
		}
		model, err := tevot.Train(tevot.FPMul32, []*tevot.Trace{trTrain}, tevot.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		trTest, err := tevot.CharacterizeWithSpeedups(fu, corner, test, []float64{0.10})
		if err != nil {
			log.Fatal(err)
		}
		ev, err := tevot.Evaluate(model, trTest, 0)
		if err != nil {
			log.Fatal(err)
		}
		guardband := (static.Delay - base) / static.Delay
		fmt.Printf("%.2f  %8.0f ps   %10.0f ps   %7.1f%%  %7.2f%%   %7.2f%%\n",
			v, static.Delay, base, guardband*100, ev.TERTrue*100, ev.Accuracy*100)
	}
}
