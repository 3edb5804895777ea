// Quickstart: the whole TEVoT flow on one functional unit in ~30 lines
// of API calls — build the gate-level unit, characterize its dynamic
// delay at an operating corner, train the random-forest model, and
// predict timing errors at an overclocked capture period.
package main

import (
	"fmt"
	"log"

	"tevot"
)

func main() {
	log.SetFlags(0)

	// 1. Build the 32-bit integer adder as a gate-level netlist.
	fu, err := tevot.NewFunctionalUnit(tevot.IntAdd32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %v: %d gates\n", fu.FU, fu.NL.NumGates())

	// 2. Pick an operating corner: a droopy supply on a cool die.
	corner := tevot.Corner{V: 0.85, T: 25}

	// 3. Characterize: random workload, measured error-free base clock.
	train := tevot.RandomWorkload(tevot.IntAdd32, 3000, 1)
	base, err := tevot.CalibrateBaseClock(fu, corner, train)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("error-free base clock at %v: %.1f ps\n", corner, base)

	speedups := []float64{0.05, 0.10, 0.15}
	trace, err := tevot.CharacterizeWithSpeedups(fu, corner, train, speedups)
	if err != nil {
		log.Fatal(err)
	}
	for k, sp := range speedups {
		fmt.Printf("  %2.0f%% overclock -> measured TER %.3f%%\n", sp*100, trace.TER(k)*100)
	}

	// 4. Train TEVoT (random forest on {V, T, x[t], x[t-1]} -> delay).
	model, err := tevot.Train(tevot.IntAdd32, []*tevot.Trace{trace}, tevot.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 5. Predict on unseen workload and score against gate-level
	// simulation ground truth.
	test := tevot.RandomWorkload(tevot.IntAdd32, 1000, 2)
	testTrace, err := tevot.CharacterizeWithSpeedups(fu, corner, test, speedups)
	if err != nil {
		log.Fatal(err)
	}
	for k := range speedups {
		ev, err := tevot.Evaluate(model, testTrace, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("TEVoT @ %.1f ps clock: accuracy %.2f%% (true TER %.3f%%, predicted %.3f%%)\n",
			ev.Clock, ev.Accuracy*100, ev.TERTrue*100, ev.TERPred*100)
	}

	// 6. The same model answers point queries, reusable across clocks.
	cur := tevot.OperandPair{A: 0xFFFFFFFF, B: 1} // full carry ripple
	prev := tevot.OperandPair{A: 0xFFFFFFFF, B: 0}
	d := model.PredictDelay(corner, cur, prev)
	fmt.Printf("predicted dynamic delay of 0xFFFFFFFF+1 after settle: %.1f ps\n", d)
}
