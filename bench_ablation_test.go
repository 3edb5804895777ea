// Ablation benchmarks for the design choices DESIGN.md calls out:
// history features (the paper's own TEVoT-NH ablation), forest size,
// training-set size, and adder topology (how much of the workload
// effect comes from long data-dependent carry chains).
package tevot_test

import (
	"context"
	"fmt"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/ml"
	"tevot/internal/netlist"
	"tevot/internal/workload"
)

// ablationSetup characterizes train/test traces for one FU at one corner
// with a 10 % overclock.
func ablationSetup(b *testing.B, fu circuits.FU, trainN, testN int) (u *core.FUnit, train, test *core.Trace) {
	b.Helper()
	u, err := core.NewFUnit(fu)
	if err != nil {
		b.Fatal(err)
	}
	corner := cells.Corner{V: 0.85, T: 25}
	trainS := workload.Random(fu.IsFloat(), trainN+1, 11)
	testS := workload.Random(fu.IsFloat(), testN+1, 12)
	if _, err := u.CalibrateBaseClockOptsContext(context.Background(), corner, trainS, core.CharacterizeOptions{}); err != nil {
		b.Fatal(err)
	}
	clocks, err := u.ClockPeriods(corner, []float64{0.10})
	if err != nil {
		b.Fatal(err)
	}
	train, err = core.CharacterizeOptsContext(context.Background(), u, corner, trainS, clocks, core.CharacterizeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	test, err = core.CharacterizeOptsContext(context.Background(), u, corner, testS, clocks, core.CharacterizeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return u, train, test
}

// BenchmarkAblationHistoryFeature contrasts TEVoT with TEVoT-NH on the
// FP adder (where alignment-shift paths depend on the operand pair and
// its predecessor).
func BenchmarkAblationHistoryFeature(b *testing.B) {
	_, train, test := ablationSetup(b, circuits.FPAdd32, 2500, 900)
	var withH, withoutH float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		m, err := core.Train(circuits.FPAdd32, []*core.Trace{train}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, withH, err = core.EvaluateAll(m, []*core.Trace{test})
		if err != nil {
			b.Fatal(err)
		}
		cfg.History = false
		nh, err := core.Train(circuits.FPAdd32, []*core.Trace{train}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, withoutH, err = core.EvaluateAll(nh, []*core.Trace{test})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*withH, "with-history-acc-%")
	b.ReportMetric(100*withoutH, "no-history-acc-%")
}

// BenchmarkAblationTreeCount sweeps the forest size on the FP adder.
func BenchmarkAblationTreeCount(b *testing.B) {
	_, train, test := ablationSetup(b, circuits.FPAdd32, 2000, 700)
	for _, trees := range []int{1, 5, 10, 25} {
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Forest = ml.DefaultForestConfig(ml.Regression)
				cfg.Forest.Trees = trees
				m, err := core.Train(circuits.FPAdd32, []*core.Trace{train}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				_, acc, err = core.EvaluateAll(m, []*core.Trace{test})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*acc, "acc-%")
		})
	}
}

// BenchmarkAblationTrainingSize sweeps the training-set size.
func BenchmarkAblationTrainingSize(b *testing.B) {
	for _, n := range []int{250, 1000, 4000} {
		b.Run(fmt.Sprintf("cycles=%d", n), func(b *testing.B) {
			_, train, test := ablationSetup(b, circuits.FPAdd32, n, 700)
			var acc float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := core.Train(circuits.FPAdd32, []*core.Trace{train}, core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				_, acc, err = core.EvaluateAll(m, []*core.Trace{test})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*acc, "acc-%")
		})
	}
}

// BenchmarkAblationAdderTopology contrasts the dynamic-delay spread of
// the ripple-carry adder against the carry-lookahead version: the
// shorter, flatter CLA paths compress the delay distribution, which is
// the structural reason workload-aware modeling pays off most on long
// serial chains.
func BenchmarkAblationAdderTopology(b *testing.B) {
	corner := cells.Corner{V: 0.85, T: 25}
	s := workload.RandomInt(801, 21)
	for _, topo := range []string{"ripple", "lookahead", "carry-select"} {
		b.Run(topo, func(b *testing.B) {
			var nl *netlist.Netlist
			switch topo {
			case "ripple":
				nl = circuits.NewRippleAdder(32)
			case "lookahead":
				nl = circuits.NewCLAAdder(32)
			case "carry-select":
				nl = circuits.NewCarrySelectAdder(32, 4)
			}
			u, err := core.NewFUnitFromNetlist(circuits.IntAdd32, nl)
			if err != nil {
				b.Fatal(err)
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

// BenchmarkAblationMultiplierTopology contrasts the row-ripple array
// multiplier with the Wallace tree on the full 16×16 product: the tree
// compresses depth and with it the dynamic-delay spread.
func BenchmarkAblationMultiplierTopology(b *testing.B) {
	corner := cells.Corner{V: 0.85, T: 25}
	s := workload.RandomInt(301, 22)
	narrow := func(p workload.OperandPair) workload.OperandPair {
		return workload.OperandPair{A: p.A & 0xFFFF, B: p.B & 0xFFFF}
	}
	pairs := make([]workload.OperandPair, len(s.Pairs))
	for i, p := range s.Pairs {
		pairs[i] = narrow(p)
	}
	s16 := &workload.Stream{Name: "random16", Pairs: pairs}

	for _, topo := range []string{"array", "wallace"} {
		b.Run(topo, func(b *testing.B) {
			var nl *netlist.Netlist
			if topo == "array" {
				nl = circuits.NewFullMultiplier(16)
			} else {
				nl = circuits.NewWallaceMultiplier(16)
			}
			u, err := core.NewFUnitFromNetlist(circuits.IntMul32, nl)
			if err != nil {
				b.Fatal(err)
			}
			// The 16-bit generators have 32 inputs; feed only low halves.
			static, err := u.Static(corner)
			if err != nil {
				b.Fatal(err)
			}
			var mean, max float64
			var events int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := characterize16(u, corner, s16)
				if err != nil {
					b.Fatal(err)
				}
				mean, max, events = tr.mean, tr.max, tr.events
			}
			b.ReportMetric(mean, "mean-ps")
			b.ReportMetric(max, "max-ps")
			b.ReportMetric(static.Delay, "static-ps")
			b.ReportMetric(float64(events)/float64(len(s16.Pairs)-1), "events/cycle")
		})
	}
}

type charStats struct {
	mean, max float64
	events    int
}

// characterize16 runs a 16-bit-operand stream through a 32-input
// netlist (two 16-bit operands) directly with the simulator, since
// core.Characterize assumes the 64-input FU shape.
func characterize16(u *core.FUnit, corner cells.Corner, s *workload.Stream) (charStats, error) {
	r, err := u.NewRunner(corner)
	if err != nil {
		return charStats{}, err
	}
	enc := func(p workload.OperandPair) []bool {
		v := make([]bool, 32)
		for i := 0; i < 16; i++ {
			v[i] = p.A>>i&1 == 1
			v[16+i] = p.B>>i&1 == 1
		}
		return v
	}
	var st charStats
	sum := 0.0
	prev := enc(s.Pairs[0])
	for i := 1; i < len(s.Pairs); i++ {
		res, err := r.Cycle(prev, enc(s.Pairs[i]))
		if err != nil {
			return charStats{}, err
		}
		sum += res.Delay
		if res.Delay > st.max {
			st.max = res.Delay
		}
		st.events += res.Events
		prev = nil
	}
	st.mean = sum / float64(len(s.Pairs)-1)
	return st, nil
}
