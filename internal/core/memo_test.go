package core

import (
	"context"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/imaging"
	"tevot/internal/inject"
	"tevot/internal/workload"
)

// recordAppStream profiles one application over a small synthetic image
// set and returns its operand stream for the given (native) FU — the
// same recording path the experiment lab uses.
func recordAppStream(t *testing.T, app inject.App, fu circuits.FU, pairCap int) *workload.Stream {
	t.Helper()
	rec := inject.NewRecording(pairCap)
	for _, img := range imaging.SyntheticSet(2, 24, 24) {
		app.Run(img, rec)
	}
	s, err := rec.Stream(fu)
	if err != nil {
		t.Fatal(err)
	}
	s.Name = app.String()
	return s
}

// TestMemoHitRateImagingStreams pins the optimization's premise on the
// workloads it was built for: the Sobel and Gaussian operand streams
// repeat input transitions, so characterization with the transition
// memo on must clear a minimum hit rate — and produce bit-identical
// results to the memo-off run.
//
// Measured on this fixture (2× synthetic 24×24 images, 1500-pair cap):
// Sobel/INT_MUL 0.283, Sobel/INT_ADD 0.106, Gauss/FP_MUL 0.280,
// Gauss/FP_ADD 0.043. The rate grows with stream length as the repeat
// structure compounds across images — 0.44 at 20k cycles and ~0.60 at
// 60k cycles on the multipliers (8 images, larger caps) — so these
// small-fixture bounds are the floor, not the ceiling. The assertions
// sit below the measured values so image-set tweaks don't flake them;
// update both if the fixture changes.
func TestMemoHitRateImagingStreams(t *testing.T) {
	cases := []struct {
		app     inject.App
		fu      circuits.FU
		minRate float64
	}{
		{inject.SobelApp, circuits.IntMul32, 0.20},
		{inject.SobelApp, circuits.IntAdd32, 0.06},
		{inject.GaussApp, circuits.FPMul32, 0.20},
		{inject.GaussApp, circuits.FPAdd32, 0.02},
	}
	corner := cells.Corner{V: 0.90, T: 25}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.app.String()+"/"+tc.fu.String(), func(t *testing.T) {
			t.Parallel()
			s := recordAppStream(t, tc.app, tc.fu, 1500)
			u, err := NewFUnit(tc.fu)
			if err != nil {
				t.Fatal(err)
			}
			clocks := []float64{200, 400}
			on, err := CharacterizeOptsContext(context.Background(), u, corner, s, clocks, CharacterizeOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			off, err := CharacterizeOptsContext(context.Background(), u, corner, s, clocks, CharacterizeOptions{Workers: 1, MemoOff: true})
			if err != nil {
				t.Fatal(err)
			}

			// Bit-identical outputs, memo on vs off.
			if on.Events != off.Events || on.MaxDelay != off.MaxDelay {
				t.Fatalf("memo on/off diverge: events %d/%d, max %v/%v",
					on.Events, off.Events, on.MaxDelay, off.MaxDelay)
			}
			for i := range off.Delays {
				if on.Delays[i] != off.Delays[i] {
					t.Fatalf("cycle %d: delay %v with memo, %v without", i, on.Delays[i], off.Delays[i])
				}
			}
			for k := range off.Errors {
				for i := range off.Errors[k] {
					if on.Errors[k][i] != off.Errors[k][i] {
						t.Fatalf("clock %d cycle %d: error flag diverges", k, i)
					}
				}
			}

			// The premise: real streams repeat transitions.
			if hr := on.HitRate(); hr < tc.minRate {
				t.Fatalf("memo hit rate %.3f below %.2f on %s/%s (%d cycles, stats: %d hits, %d misses)",
					hr, tc.minRate, tc.app, tc.fu, on.Cycles(), on.MemoHits, on.MemoMisses)
			}
			if off.MemoHits != 0 || off.MemoMisses != 0 || off.HitRate() != 0 {
				t.Fatalf("memo-off trace carries memo stats: %+v", off)
			}
			t.Logf("%s/%s: %d cycles, hit rate %.3f, %d windows, pruned-gate fraction %.3f",
				tc.app, tc.fu, on.Cycles(), on.HitRate(), on.SliceWindows,
				func() float64 {
					if on.SliceWindows == 0 {
						return 0
					}
					return float64(on.SlicePrunedGateWindows) / (float64(on.SliceWindows) * float64(u.NL.NumGates()))
				}())
		})
	}
}
