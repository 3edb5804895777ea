package core

import (
	"context"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/workload"
)

func TestNewFUnits(t *testing.T) {
	units, err := NewFUnits()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 4 {
		t.Fatalf("got %d units, want 4", len(units))
	}
	for _, fu := range circuits.AllFUs {
		u, ok := units[fu]
		if !ok || u.NL == nil {
			t.Errorf("missing or empty unit for %v", fu)
		}
	}
}

func TestNewFUnitFromNetlist(t *testing.T) {
	nl := circuits.NewCLAAdder(8)
	u, err := NewFUnitFromNetlist(circuits.IntAdd32, nl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Static(cells.Corner{V: 0.9, T: 25}); err != nil {
		t.Fatalf("Static on wrapped netlist: %v", err)
	}
}

func TestCalibrateBaseClockErrors(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	// Invalid corner propagates.
	if _, err := u.CalibrateBaseClockOptsContext(context.Background(), cells.Corner{V: 0.2, T: 25}, workload.RandomInt(50, 1), CharacterizeOptions{}); err == nil {
		t.Error("calibration accepted a sub-threshold corner")
	}
	// A stream that never changes inputs has no activity to measure.
	quiet := &workload.Stream{Name: "quiet", Pairs: []workload.OperandPair{{A: 5, B: 5}, {A: 5, B: 5}}}
	if _, err := u.CalibrateBaseClockOptsContext(context.Background(), cells.Corner{V: 1, T: 25}, quiet, CharacterizeOptions{}); err == nil {
		t.Error("calibration accepted a stream with no output activity")
	}
}

func TestModelPointErrorAndTER(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 0.9, T: 50}
	s := workload.RandomInt(401, 8)
	tr, err := CharacterizeOptsContext(context.Background(), u, c, s, nil, CharacterizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(circuits.IntAdd32, []*Trace{tr}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cur, prev := s.Pairs[1], s.Pairs[0]
	d := m.PredictDelay(c, cur, prev)
	one := &workload.Stream{Pairs: []workload.OperandPair{prev, cur}}
	for _, tc := range []struct {
		tclk float64
		want bool
	}{{d + 1, false}, {d - 1, true}} {
		errs, err := m.Errors(c, one, tc.tclk)
		if err != nil {
			t.Fatal(err)
		}
		if len(errs) != 1 || errs[0] != tc.want {
			t.Errorf("Errors at tclk = predicted delay %+g = %v, want [%v]", tc.tclk-d, errs, tc.want)
		}
	}
	ter, err := m.TER(c, s, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	if ter < 0.99 {
		t.Errorf("TER at a near-zero clock = %v, want ~1", ter)
	}
	ter, err = m.TER(c, s, tr.StaticDelay*2)
	if err != nil {
		t.Fatal(err)
	}
	if ter != 0 {
		t.Errorf("TER at a huge clock = %v, want 0", ter)
	}
	if _, err := m.TER(c, &workload.Stream{Name: "x"}, 100); err == nil {
		t.Error("TER accepted an empty stream")
	}
}
