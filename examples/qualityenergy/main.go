// Quality-energy tradeoff exploration: the approximate-computing
// scenario the paper's introduction motivates. The Gaussian filter's
// floating-point units run at a FIXED clock (rated at nominal voltage)
// while the supply is scaled down. Each step saves CV² energy but
// eventually violates timing; TEVoT predicts the per-FU timing-error
// rates from the filter's own operand stream, errors are injected, and
// the output PSNR shows where quality collapses — the knee a
// quality-aware DVFS controller would sit on.
package main

import (
	"fmt"
	"log"

	"tevot"
	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/imaging"
	"tevot/internal/inject"
	"tevot/internal/power"
)

func main() {
	log.SetFlags(0)

	img := imaging.Synthetic(2, 40, 40)
	pm := power.Default()
	app := inject.GaussApp

	// Profile the filter's FP operand streams once.
	rec := inject.NewRecording(2000)
	app.Run(img, rec)

	// Rate each FU's clock at nominal voltage and train TEVoT across the
	// voltage range so one model covers the whole sweep.
	nominal := tevot.Corner{V: 1.00, T: 25}
	sweep := []tevot.Corner{
		{V: 1.00, T: 25}, {V: 0.96, T: 25}, {V: 0.92, T: 25},
		{V: 0.88, T: 25}, {V: 0.84, T: 25}, {V: 0.81, T: 25},
	}

	type fuState struct {
		unit   *core.FUnit
		model  *tevot.Model
		clock  float64 // ps, fixed across the sweep
		stream *tevot.Stream
	}
	states := map[circuits.FU]*fuState{}
	for _, fuKind := range app.FUs() {
		u, err := tevot.NewFunctionalUnit(fuKind)
		if err != nil {
			log.Fatal(err)
		}
		train := tevot.RandomWorkload(fuKind, 900, int64(fuKind)+3)
		base, err := tevot.CalibrateBaseClock(u, nominal, train)
		if err != nil {
			log.Fatal(err)
		}
		var traces []*tevot.Trace
		for _, c := range sweep {
			tr, err := tevot.Characterize(u, c, train, []float64{base})
			if err != nil {
				log.Fatal(err)
			}
			traces = append(traces, tr)
		}
		model, err := tevot.Train(fuKind, traces, tevot.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		stream, err := rec.Stream(fuKind)
		if err != nil {
			log.Fatal(err)
		}
		states[fuKind] = &fuState{unit: u, model: model, clock: base, stream: stream}
		fmt.Printf("%v rated at %.0f ps (%.2f GHz equivalent)\n", fuKind, base, 1000/base)
	}

	fmt.Println("\nV      energy/op   predicted TER (FP_ADD/FP_MUL)   PSNR     verdict")
	for _, corner := range sweep {
		ters := inject.TERs{}
		var energy float64
		for fuKind, st := range states {
			ter, err := st.model.TER(corner, st.stream, st.clock)
			if err != nil {
				log.Fatal(err)
			}
			ters[fuKind] = ter
			// Energy: characterize a short window for switching activity.
			probe, err := tevot.Characterize(st.unit, corner, st.stream.Slice(0, min(200, st.stream.Len())), nil)
			if err != nil {
				log.Fatal(err)
			}
			perOp, err := pm.PerOpFJ(probe.Events, probe.Cycles(), st.clock, cells.Corner(corner))
			if err != nil {
				log.Fatal(err)
			}
			energy += perOp
		}
		psnr, _, err := app.QualityRun(img, ters, 99)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "acceptable"
		if psnr < imaging.AcceptableThresholdDB {
			verdict = "UNACCEPTABLE"
		}
		fmt.Printf("%.2f  %7.1f fJ   %6.2f%% / %6.2f%%              %6.1f dB  %s\n",
			corner.V, energy,
			100*ters[circuits.FPAdd32], 100*ters[circuits.FPMul32], psnr, verdict)
	}
	fmt.Println("\n(the knee where energy savings meet the 30 dB floor is the operating")
	fmt.Println("point a TEVoT-guided controller would select)")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
