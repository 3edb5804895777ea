package core

import (
	"context"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/workload"
)

// TestEnableLayoutSlowsTiming: post-layout delays include interconnect,
// so the static delay must grow, and the full pipeline still works on
// the placed unit.
func TestEnableLayoutSlowsTiming(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	corner := cells.Corner{V: 0.9, T: 25}
	pre, err := u.Static(corner)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.EnableLayout(); err != nil {
		t.Fatal(err)
	}
	post, err := u.Static(corner)
	if err != nil {
		t.Fatal(err)
	}
	if post.Delay <= pre.Delay {
		t.Errorf("post-layout static delay (%v) should exceed pre-layout (%v)", post.Delay, pre.Delay)
	}
	if ratio := post.Delay / pre.Delay; ratio > 3 {
		t.Errorf("interconnect blew up the delay %vx; wire coefficient implausible", ratio)
	}

	// Full flow on the placed unit: characterize, train, evaluate.
	s := workload.RandomInt(601, 77)
	if _, err := u.CalibrateBaseClockOptsContext(context.Background(), corner, s, CharacterizeOptions{}); err != nil {
		t.Fatal(err)
	}
	clocks, err := u.ClockPeriods(corner, []float64{0.10})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CharacterizeOptsContext(context.Background(), u, corner, s, clocks, CharacterizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxDelay > post.Delay+1e-9 {
		t.Errorf("post-layout dynamic max (%v) exceeds static (%v)", tr.MaxDelay, post.Delay)
	}
	m, err := Train(circuits.IntAdd32, []*Trace{tr}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateAt(m, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.8 {
		t.Errorf("post-layout training accuracy %v suspiciously low", ev.Accuracy)
	}
}
