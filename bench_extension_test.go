// Extension benchmarks: the paper's §VI future work, implemented — how
// TEVoT behaves under process variation and silicon aging, which enter
// the delay model as threshold-voltage shifts (internal/cells).
package tevot_test

import (
	"context"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/sta"
	"tevot/internal/workload"
)

// agedUnit builds an INT_ADD FUnit whose timing includes the given
// wearout.
func agedUnit(b *testing.B, years float64) *core.FUnit {
	b.Helper()
	u, err := core.NewFUnit(circuits.IntAdd32)
	if err != nil {
		b.Fatal(err)
	}
	opts := sta.DefaultOptions()
	if years > 0 {
		aging := cells.DefaultAging(years)
		opts.Aging = &aging
	}
	u.Opts = opts
	return u
}

// BenchmarkExtensionAging trains TEVoT on fresh silicon and scores it on
// a 5-year-old die at the fresh die's clocks, then retrains on aged
// characterization data: the accuracy drop and recovery quantify how
// wearout invalidates a delay model (the paper's motivation for naming
// aging as future work).
func BenchmarkExtensionAging(b *testing.B) {
	corner := cells.Corner{V: 0.81, T: 0}
	train := workload.RandomInt(1501, 1)
	test := workload.RandomInt(601, 2)

	fresh := agedUnit(b, 0)
	aged := agedUnit(b, 10)
	if _, err := fresh.CalibrateBaseClockOptsContext(context.Background(), corner, train, core.CharacterizeOptions{}); err != nil {
		b.Fatal(err)
	}
	clocks, err := fresh.ClockPeriods(corner, []float64{0.15})
	if err != nil {
		b.Fatal(err)
	}

	var onFresh, onAged, retrained, lastAgedTER float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trFresh, err := core.CharacterizeOptsContext(context.Background(), fresh, corner, train, clocks, core.CharacterizeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		model, err := core.Train(circuits.IntAdd32, []*core.Trace{trFresh}, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		teFresh, err := core.CharacterizeOptsContext(context.Background(), fresh, corner, test, clocks, core.CharacterizeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		teAged, err := core.CharacterizeOptsContext(context.Background(), aged, corner, test, clocks, core.CharacterizeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		lastAgedTER = teAged.TER(0)
		if _, onFresh, err = core.EvaluateAll(model, []*core.Trace{teFresh}); err != nil {
			b.Fatal(err)
		}
		if _, onAged, err = core.EvaluateAll(model, []*core.Trace{teAged}); err != nil {
			b.Fatal(err)
		}
		trAged, err := core.CharacterizeOptsContext(context.Background(), aged, corner, train, clocks, core.CharacterizeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		modelAged, err := core.Train(circuits.IntAdd32, []*core.Trace{trAged}, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, retrained, err = core.EvaluateAll(modelAged, []*core.Trace{teAged}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*onFresh, "fresh-silicon-acc-%")
	b.ReportMetric(100*onAged, "aged-silicon-acc-%")
	b.ReportMetric(100*retrained, "retrained-acc-%")
	b.ReportMetric(100*lastAgedTER, "aged-TER-%")
}

// BenchmarkExtensionPostLayout contrasts pre-layout timing (fanout-only
// load model) with post-layout timing (placed interconnect) on the FP
// adder: how much delay the flow's place-and-route stage adds, and how
// the dynamic-delay spread moves with it.
func BenchmarkExtensionPostLayout(b *testing.B) {
	corner := cells.Corner{V: 0.9, T: 25}
	s := workload.Random(true, 401, 5)
	for _, layout := range []string{"pre-layout", "post-layout"} {
		b.Run(layout, func(b *testing.B) {
			u, err := core.NewFUnit(circuits.FPAdd32)
			if err != nil {
				b.Fatal(err)
			}
			if layout == "post-layout" {
				if err := u.EnableLayout(); err != nil {
					b.Fatal(err)
				}
			}
			static, err := u.Static(corner)
			if err != nil {
				b.Fatal(err)
			}
			var mean, max float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := core.CharacterizeOptsContext(context.Background(), u, corner, s, nil, core.CharacterizeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				mean, max = tr.MeanDelay(), tr.MaxDelay
			}
			b.ReportMetric(mean, "mean-ps")
			b.ReportMetric(max, "max-ps")
			b.ReportMetric(static.Delay, "static-ps")
		})
	}
}

// BenchmarkExtensionProcessSpread measures how die-to-die process
// variation moves the error-free clock: the spread across ten dies at
// one corner, relative to the typical die.
func BenchmarkExtensionProcessSpread(b *testing.B) {
	corner := cells.Corner{V: 0.85, T: 50}
	train := workload.RandomInt(401, 3)
	var lo, hi float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi = 0, 0
		for die := int64(0); die < 10; die++ {
			u, err := core.NewFUnit(circuits.IntAdd32)
			if err != nil {
				b.Fatal(err)
			}
			opts := sta.DefaultOptions()
			p := cells.DefaultProcess(die)
			opts.Process = &p
			u.Opts = opts
			base, err := u.CalibrateBaseClockOptsContext(context.Background(), corner, train, core.CharacterizeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if lo == 0 || base < lo {
				lo = base
			}
			if base > hi {
				hi = base
			}
		}
	}
	b.ReportMetric(lo, "fastest-die-ps")
	b.ReportMetric(hi, "slowest-die-ps")
	b.ReportMetric(100*(hi-lo)/lo, "die-spread-%")
}
