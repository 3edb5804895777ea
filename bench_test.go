// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (see DESIGN.md §6 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results).
//
// Each benchmark runs a reduced-scale version of its experiment per
// iteration and reports the headline quantities as custom metrics
// (accuracy in %, delays in ps, speedups in x). The cmd/ tools run the
// same experiments at arbitrary scale, up to the paper's full sweep.
package tevot_test

import (
	"context"
	"strings"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/experiments"
	"tevot/internal/workload"
)

// benchScale is the iteration-sized configuration shared by the
// experiment benchmarks.
func benchScale() experiments.Scale {
	s := experiments.Small()
	s.TrainCycles = 1200
	s.TestCycles = 500
	s.Corners = []cells.Corner{{V: 0.81, T: 0}, {V: 1.00, T: 100}}
	s.Speedups = []float64{0.05, 0.10, 0.15}
	s.Images = 2
	s.ImageSize = 20
	s.AppStreamCap = 900
	return s
}

// BenchmarkTable1ConditionGrid regenerates the operating-condition grid
// of Table I (20 voltages x 5 temperatures, 3 clock speedups) and
// validates every corner against the delay-scaling model's domain.
func BenchmarkTable1ConditionGrid(b *testing.B) {
	model := cells.DefaultScaling()
	for i := 0; i < b.N; i++ {
		g := core.TableIGrid()
		corners := g.Corners()
		if len(corners) != 100 {
			b.Fatalf("grid has %d corners, want 100", len(corners))
		}
		for _, c := range corners {
			if err := model.Validate(c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(100, "corners")
	b.ReportMetric(3, "speedups")
}

// BenchmarkFig1DynamicDelay exercises the paper's Fig. 1 phenomenon:
// per-cycle event-driven simulation of a functional unit where the
// sensitized path — and so the measured dynamic delay — depends on the
// applied input pair. Reports the observed delay spread.
func BenchmarkFig1DynamicDelay(b *testing.B) {
	u, err := core.NewFUnit(circuits.IntAdd32)
	if err != nil {
		b.Fatal(err)
	}
	corner := cells.Corner{V: 0.9, T: 25}
	s := workload.RandomInt(501, 1)
	var minD, maxD float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := core.CharacterizeOptsContext(context.Background(), u, corner, s, nil, core.CharacterizeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		minD, maxD = tr.StaticDelay, tr.MaxDelay
		for _, d := range tr.Delays {
			if d > 0 && d < minD {
				minD = d
			}
		}
	}
	b.ReportMetric(minD, "min-delay-ps")
	b.ReportMetric(maxD, "max-delay-ps")
}

// BenchmarkTable2MLComparison runs the learning-method comparison (LR,
// k-NN, SVM, RFC) on the FP adder and reports each method's accuracy.
func BenchmarkTable2MLComparison(b *testing.B) {
	scale := benchScale()
	scale.FUs = []circuits.FU{circuits.FPAdd32}
	scale.Corners = scale.Corners[:1]
	lab, err := experiments.NewLab(scale)
	if err != nil {
		b.Fatal(err)
	}
	var results []core.MethodResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err = experiments.Table2(lab)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(100*r.Accuracy, r.Method+"-acc-%")
	}
}

// BenchmarkFig3DelayCharacterization reproduces the delay-vs-corner
// characterization of Fig. 3 on the integer adder and reports the mean
// dynamic delay per dataset at the lowest-voltage corner.
func BenchmarkFig3DelayCharacterization(b *testing.B) {
	scale := benchScale()
	scale.FUs = []circuits.FU{circuits.IntAdd32}
	lab, err := experiments.NewLab(scale)
	if err != nil {
		b.Fatal(err)
	}
	corners := []cells.Corner{{V: 0.81, T: 0}, {V: 0.90, T: 50}, {V: 1.00, T: 100}}
	var rows []experiments.DelayRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig3(lab, corners)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Corner.V == 0.81 {
			b.ReportMetric(r.MeanDelay, r.Dataset+"-ps")
		}
	}
}

// BenchmarkTable3PredictionAccuracy runs the headline experiment: TEVoT
// against the Delay-based, TER-based, and TEVoT-NH baselines, averaged
// over corners, speedups, and datasets on the integer adder.
func BenchmarkTable3PredictionAccuracy(b *testing.B) {
	scale := benchScale()
	scale.FUs = []circuits.FU{circuits.IntAdd32}
	lab, err := experiments.NewLab(scale)
	if err != nil {
		b.Fatal(err)
	}
	var cells3 []experiments.Table3Cell
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells3, err = experiments.Table3(lab)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range []string{"TEVoT", "Delay-based", "TER-based", "TEVoT-NH"} {
		b.ReportMetric(100*experiments.MeanAccuracy(cells3, m), m+"-acc-%")
	}
}

// BenchmarkTable4QualityEstimation runs the application-quality study
// for both filters and reports each model's estimation accuracy.
func BenchmarkTable4QualityEstimation(b *testing.B) {
	scale := benchScale()
	scale.Corners = scale.Corners[:1]
	scale.Speedups = []float64{0.10}
	scale.TrainCycles = 700
	scale.AppStreamCap = 500
	lab, err := experiments.NewLab(scale)
	if err != nil {
		b.Fatal(err)
	}
	var rows []experiments.Table4Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, _, err = experiments.Table4(lab)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		for model, acc := range row.Accuracy {
			b.ReportMetric(100*acc, row.App.String()+"-"+model+"-acc-%")
		}
	}
}

// BenchmarkFig4SobelOutputs regenerates the Fig. 4 panel (ground-truth
// and per-model degraded Sobel outputs) and reports each PSNR.
func BenchmarkFig4SobelOutputs(b *testing.B) {
	scale := benchScale()
	scale.Corners = scale.Corners[:1]
	scale.Speedups = []float64{0.15}
	scale.TrainCycles = 700
	scale.AppStreamCap = 500
	lab, err := experiments.NewLab(scale)
	if err != nil {
		b.Fatal(err)
	}
	var outputs []experiments.Fig4Output
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outputs, err = experiments.Fig4(lab)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, o := range outputs {
		psnr := o.PSNR
		if psnr > 99 {
			psnr = 99 // +Inf for identical images; clamp for the metric
		}
		b.ReportMetric(psnr, strings.ReplaceAll(o.Model, " ", "-")+"-dB")
	}
}

// BenchmarkSpeedupVsGateLevel quantifies §V.C's claim that TEVoT
// inference is ~100x faster than back-annotated gate-level simulation,
// on the largest functional unit (FP multiplier).
func BenchmarkSpeedupVsGateLevel(b *testing.B) {
	scale := benchScale()
	scale.FUs = []circuits.FU{circuits.FPMul32}
	scale.TrainCycles = 400
	scale.TestCycles = 300
	lab, err := experiments.NewLab(scale)
	if err != nil {
		b.Fatal(err)
	}
	var res *experiments.SpeedupResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiments.Speedup(lab, circuits.FPMul32)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Speedup, "speedup-x")
	b.ReportMetric(float64(res.SimPerCycle.Nanoseconds()), "sim-ns/cycle")
	b.ReportMetric(float64(res.PredPerCycle.Nanoseconds()), "predict-ns/cycle")
}
