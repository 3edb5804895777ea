package features

import (
	"testing"
	"testing/quick"

	"tevot/internal/cells"
	"tevot/internal/workload"
)

func TestVectorLayout(t *testing.T) {
	c := cells.Corner{V: 0.85, T: 75}
	cur := workload.OperandPair{A: 1, B: 1 << 31}
	prev := workload.OperandPair{A: 0xFFFFFFFF, B: 0}
	x := Vector(c, cur, prev)
	if len(x) != Dim {
		t.Fatalf("len = %d, want %d", len(x), Dim)
	}
	if x[0] != 1 || x[1] != 0 {
		t.Error("cur.A LSB misplaced")
	}
	if x[63] != 1 {
		t.Error("cur.B MSB misplaced")
	}
	for i := 64; i < 96; i++ {
		if x[i] != 1 {
			t.Fatalf("prev.A bit %d should be 1", i-64)
		}
	}
	if x[128] != 0.85 || x[129] != 75 {
		t.Errorf("corner features = %v, %v", x[128], x[129])
	}
}

func TestVectorNHLayout(t *testing.T) {
	c := cells.Corner{V: 1.0, T: 0}
	x := make([]float64, DimNH)
	VectorNHInto(x, c, workload.OperandPair{A: 3, B: 0})
	if x[0] != 1 || x[1] != 1 || x[2] != 0 {
		t.Error("cur.A bits misplaced")
	}
	if x[64] != 1.0 || x[65] != 0 {
		t.Errorf("corner features = %v, %v", x[64], x[65])
	}
}

// TestRoundTrip: Pairs(Vector(...)) is the identity — the involution
// property from the design doc.
func TestRoundTrip(t *testing.T) {
	f := func(a, b, pa, pb uint32, vi, ti uint8) bool {
		c := cells.Corner{V: 0.81 + float64(vi%20)*0.01, T: float64(ti%5) * 25}
		cur := workload.OperandPair{A: a, B: b}
		prev := workload.OperandPair{A: pa, B: pb}
		gc, gp, gcorner := Pairs(Vector(c, cur, prev))
		return gc == cur && gp == prev && gcorner.T == c.T &&
			gcorner.V > c.V-1e-9 && gcorner.V < c.V+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBitsAreBinary: every bit feature is exactly 0 or 1.
func TestBitsAreBinary(t *testing.T) {
	f := func(a, b, pa, pb uint32) bool {
		x := Vector(cells.Corner{V: 1, T: 25},
			workload.OperandPair{A: a, B: b}, workload.OperandPair{A: pa, B: pb})
		for i := 0; i < 128; i++ {
			if x[i] != 0 && x[i] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
