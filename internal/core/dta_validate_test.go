package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/workload"
)

// TestCharacterizeRejectsBadInputs: the DTA entry point must return
// descriptive errors — never panic, never compute silent garbage — on
// the malformed inputs a sweep layer can plausibly hand it.
func TestCharacterizeRejectsBadInputs(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	corner := cells.Corner{V: 0.9, T: 25}
	ok := workload.RandomInt(64, 1)

	cases := []struct {
		name   string
		u      *FUnit
		s      *workload.Stream
		clocks []float64
		want   string
	}{
		{"nil unit", nil, ok, nil, "nil functional unit"},
		{"nil stream", u, nil, nil, "nil operand stream"},
		{"empty stream", u, &workload.Stream{Name: "empty"}, nil, "need at least 2"},
		{"one pair", u, ok.Slice(0, 1), nil, "need at least 2"},
		{"zero clock", u, ok, []float64{0}, "must be positive"},
		{"negative clock", u, ok, []float64{120, -5}, "must be positive"},
		{"nan clock", u, ok, []float64{math.NaN()}, "NaN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CharacterizeOptsContext(context.Background(), tc.u, corner, tc.s, tc.clocks, CharacterizeOptions{})
			if err == nil {
				t.Fatalf("Characterize accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCharacterizeRejectsNaNOperands: NaN bit patterns fed to a float
// unit would propagate NaN delays into every downstream model; they must
// be rejected by name and index instead.
func TestCharacterizeRejectsNaNOperands(t *testing.T) {
	u, err := NewFUnit(circuits.FPAdd32)
	if err != nil {
		t.Fatal(err)
	}
	s := workload.RandomFloat(16, 100, 3)
	s.Name = "poisoned"
	s.Pairs[5].B = circuits.BitsFromFloat32(float32(math.NaN()))
	_, err = CharacterizeOptsContext(context.Background(), u, cells.Corner{V: 0.9, T: 25}, s, nil, CharacterizeOptions{})
	if err == nil {
		t.Fatal("Characterize accepted a NaN operand on a float unit")
	}
	if !strings.Contains(err.Error(), "NaN") || !strings.Contains(err.Error(), "pair 5") {
		t.Fatalf("error %q does not pinpoint the NaN operand", err)
	}

	// The same bit pattern on an integer unit is a legitimate operand.
	ui, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	si := workload.RandomInt(16, 3)
	si.Pairs[5].B = circuits.BitsFromFloat32(float32(math.NaN()))
	if _, err := CharacterizeOptsContext(context.Background(), ui, cells.Corner{V: 0.9, T: 25}, si, nil, CharacterizeOptions{}); err != nil {
		t.Fatalf("integer unit rejected a NaN bit pattern: %v", err)
	}
}

// TestCharacterizeCancellation: an already-expired deadline stops the
// simulation loop promptly with the context's error.
func TestCharacterizeCancellation(t *testing.T) {
	u, err := NewFUnit(circuits.IntMul32)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = CharacterizeOptsContext(ctx, u, cells.Corner{V: 0.85, T: 50}, workload.RandomInt(20000, 4), nil, CharacterizeOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled characterization ran to completion")
	}
}
