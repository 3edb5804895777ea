//go:build !race

// The race detector changes no output but slows this Small()-scale run
// past the package timeout, so it runs in plain (non -race) builds only.

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"tevot/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper_golden.json from the current outputs")

const goldenPath = "testdata/paper_golden.json"

// gf is a float64 that encodes canonically in JSON: the shortest
// round-trip decimal, with ±Inf and NaN (a PSNR of identical images is
// +Inf) as strings instead of a marshal error.
type gf float64

func (f gf) MarshalJSON() ([]byte, error) {
	return json.Marshal(strconv.FormatFloat(float64(f), 'g', -1, 64))
}

func gfMap(m map[string]float64) map[string]gf {
	out := make(map[string]gf, len(m))
	for k, v := range m {
		out[k] = gf(v)
	}
	return out
}

// digest hashes v's canonical JSON (encoding/json sorts map keys).
func digest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// paperDigests runs every paper-facing output at experiments.Small()
// (seed 1) and returns the SHA-256 of each one's canonical JSON. Wall
// times (Table II's train/test columns) are the only fields left out:
// everything else is a deterministic function of the scale.
func paperDigests(t *testing.T) map[string]string {
	t.Helper()
	lab, err := NewLab(Small())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)

	fig3, err := Fig3(lab, lab.Scale.Corners)
	if err != nil {
		t.Fatal(err)
	}
	type delayRow struct {
		FU, Dataset              string
		V, T                     gf
		MeanDelay, MaxDelay, STA gf
	}
	var rows3 []delayRow
	for _, r := range fig3 {
		rows3 = append(rows3, delayRow{r.FU.String(), r.Dataset, gf(r.Corner.V), gf(r.Corner.T),
			gf(r.MeanDelay), gf(r.MaxDelay), gf(r.Static)})
	}
	out["fig3"] = digest(t, rows3)

	table2, err := Table2(lab)
	if err != nil {
		t.Fatal(err)
	}
	type method struct {
		Method   string
		Accuracy gf
	}
	var rows2 []method
	for _, r := range table2 {
		rows2 = append(rows2, method{r.Method, gf(r.Accuracy)})
	}
	out["table2"] = digest(t, rows2)

	table3, err := Table3(lab)
	if err != nil {
		t.Fatal(err)
	}
	type cell3 struct {
		FU, Dataset, Model string
		Accuracy           gf
	}
	var rows3b []cell3
	for _, c := range table3 {
		rows3b = append(rows3b, cell3{c.FU.String(), c.Dataset, c.Model, gf(c.Accuracy)})
	}
	out["table3"] = digest(t, rows3b)

	table4, sobel, gauss, err := Table4(lab)
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		App            string
		V, T, Speedup  gf
		Image          int
		TruePSNR       gf
		TrueAcceptable bool
		PSNR           map[string]gf
		Acceptable     map[string]bool
	}
	type study struct {
		Points   []point
		Accuracy map[string]gf
	}
	canonStudy := func(r *core.QualityResult) study {
		s := study{Accuracy: gfMap(r.EstimationAccuracy)}
		for _, p := range r.Points {
			s.Points = append(s.Points, point{p.App.String(), gf(p.Corner.V), gf(p.Corner.T), gf(p.Speedup),
				p.Image, gf(p.TruePSNR), p.TrueAcceptable, gfMap(p.PSNR), p.Acceptable})
		}
		return s
	}
	type row4 struct {
		App      string
		Accuracy map[string]gf
	}
	var rows4 []row4
	for _, r := range table4 {
		rows4 = append(rows4, row4{r.App.String(), gfMap(r.Accuracy)})
	}
	out["table4"] = digest(t, struct {
		Rows         []row4
		Sobel, Gauss study
	}{rows4, canonStudy(sobel), canonStudy(gauss)})

	fig4, err := Fig4(lab)
	if err != nil {
		t.Fatal(err)
	}
	type panel struct {
		Model string
		PSNR  gf
		W, H  int
		Pix   []byte
	}
	var panels []panel
	for _, o := range fig4 {
		panels = append(panels, panel{o.Model, gf(o.PSNR), o.Image.W, o.Image.H, o.Image.Pix})
	}
	out["fig4"] = digest(t, panels)
	return out
}

// TestPaperOutputsGolden pins every paper-facing output (Fig. 3, Tables
// II-IV, Fig. 4) byte for byte at a fixed small scale and seed, so a
// refactor can show mechanically that it moved none of them. Regenerate
// the digests only for a deliberate, justified output change:
//
//	go test ./internal/experiments -run TestPaperOutputsGolden -update
func TestPaperOutputsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at Small() scale")
	}
	got := paperDigests(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("%s digest = %s, golden %s", name, got[name], d)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s has no golden digest", name)
		}
	}
}
