package core

import (
	"context"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/workload"
)

// TestModelFeatureImportance: on the FP adder the dynamic delay is
// dominated by the exponent fields (alignment shift distance), so the
// exponent-bit features must collectively outrank the low mantissa bits.
func TestModelFeatureImportance(t *testing.T) {
	u, err := NewFUnit(circuits.FPAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 0.9, T: 25}
	s := workload.RandomFloat(1501, 1e6, 61)
	tr, err := CharacterizeOptsContext(context.Background(), u, c, s, nil, CharacterizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(circuits.FPAdd32, []*Trace{tr}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	names, imp := m.FeatureImportance()
	if len(names) != 130 || len(imp) != 130 {
		t.Fatalf("importance shape %d/%d, want 130/130", len(names), len(imp))
	}
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance %v", v)
		}
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("importance sums to %v, want 1", sum)
	}
	// The FP adder's delay is dominated by the alignment distance
	// (exponent fields, bits 23..30 of each operand) and the mantissa
	// carry chain; the single most informative feature must be an
	// exponent bit of one of the four operand words.
	top := m.TopFeatures(5)
	t.Logf("top-5 features: %v", top)
	isExpBit := func(name string) bool {
		for bit := 23; bit <= 30; bit++ {
			for _, f := range []string{"a", "b"} {
				if name == fmtBit("x[t].", f, bit) || name == fmtBit("x[t-1].", f, bit) {
					return true
				}
			}
		}
		return false
	}
	if !isExpBit(top[0]) {
		t.Errorf("top feature %q is not an exponent bit", top[0])
	}
}

func fmtBit(prefix, operand string, bit int) string {
	return prefix + operand + itoa(bit)
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}

func TestTopFeaturesBounds(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 1, T: 25}
	tr, err := CharacterizeOptsContext(context.Background(), u, c, workload.RandomInt(201, 1), nil, CharacterizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(circuits.IntAdd32, []*Trace{tr}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TopFeatures(5); len(got) != 5 {
		t.Errorf("TopFeatures(5) returned %d names", len(got))
	}
	if got := m.TopFeatures(1000); len(got) != 130 {
		t.Errorf("TopFeatures(1000) returned %d names, want 130", len(got))
	}
}
