package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
)

func result(wl string, fp Fingerprint, metrics map[string]float64) Result {
	r := Result{Workload: wl, Fingerprint: fp, Correct: true, Metrics: map[string]Metric{}}
	for k, v := range metrics {
		r.Metrics[k] = Metric{Value: v}
	}
	return r
}

func testSpec() benchSpec {
	return benchSpec{EndToEnd: []boundDef{{"dta_cycles_per_s", "higher", 0.1}, {"setup_s", "lower", 0.2}}}
}

var fpA = Fingerprint{CPUModel: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "a"}

func TestCompareFlagsRegressionByBound(t *testing.T) {
	fpB := fpA
	fpB.Commit = "b" // the code differs; the machine does not
	base := []Result{result("w", fpA, map[string]float64{"dta_cycles_per_s": 100, "setup_s": 1})}
	head := []Result{result("w", fpB, map[string]float64{"dta_cycles_per_s": 85, "setup_s": 1.1})}
	c, err := compareResults(testSpec(), base, head)
	if err != nil {
		t.Fatal(err)
	}
	if c.compared != 2 || len(c.regressed) != 1 || c.regressed[0] != "w/dta_cycles_per_s" {
		t.Fatalf("compared %d, regressed %v", c.compared, c.regressed)
	}
}

func TestCompareRefusesFingerprintMismatch(t *testing.T) {
	other := fpA
	other.NProc = 4
	base := []Result{result("w", fpA, map[string]float64{"setup_s": 1})}
	head := []Result{result("w", other, map[string]float64{"setup_s": 1})}
	if _, err := compareResults(testSpec(), base, head); !errors.Is(err, errFingerprint) {
		t.Fatalf("err %v, want a fingerprint mismatch", err)
	}
}

func TestCompareFailsWhenNothingCompared(t *testing.T) {
	base := []Result{result("w", fpA, map[string]float64{"setup_s": 1})}
	head := []Result{result("v", fpA, map[string]float64{"setup_s": 1})}
	if _, err := compareResults(testSpec(), base, head); err == nil {
		t.Fatal("comparing disjoint workloads passed")
	}
	bad := result("w", fpA, map[string]float64{"setup_s": 1})
	bad.Correct = false
	if _, err := compareResults(testSpec(), base, []Result{bad}); err == nil {
		t.Fatal("comparing against incorrect results passed")
	}
}

// Traced runs and runs whose load generator fell behind are left out;
// runs of different lengths are refused.
func TestCompareKeepsToComparableRuns(t *testing.T) {
	base := []Result{result("w", fpA, map[string]float64{"setup_s": 1})}
	traced := result("w", fpA, map[string]float64{"setup_s": 2})
	traced.Traced = true
	stalled := result("w", fpA, map[string]float64{"setup_s": 2, "driver.invalid_window_frac": 0.9})
	on := result("w", fpA, map[string]float64{"setup_s": 1, "driver.invalid_window_frac": 0.1})
	c, err := compareResults(testSpec(), base, []Result{traced, stalled, stalled, on})
	if err != nil {
		t.Fatal(err)
	}
	if c.compared != 1 || len(c.regressed) != 0 {
		t.Fatalf("compared %d, regressed %v; want the one on-time untraced head run", c.compared, c.regressed)
	}
	if _, err := compareResults(testSpec(), base, []Result{traced, stalled}); err == nil {
		t.Fatal("comparing against only traced and stalled runs passed")
	}
	long := result("w", fpA, map[string]float64{"setup_s": 1})
	long.Seconds = 60
	if _, err := compareResults(testSpec(), base, []Result{long}); !errors.Is(err, errRunLength) {
		t.Fatalf("err %v, want a run length mismatch", err)
	}
}

// BENCHMARK.json and the metric tables the binary reports from must
// name the same metrics with the same units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the binary %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the binary %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, binary %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)

	// baseline.json gives every per-layer metric its arrow.
	b, err = os.ReadFile("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Arrows []struct {
			LayerMetric string `json:"layer_metric"`
		}
	}
	if err := json.Unmarshal(b, &base); err != nil {
		t.Fatal(err)
	}
	arrows := map[string]bool{}
	for _, a := range base.Arrows {
		arrows[a.LayerMetric] = true
	}
	for _, d := range perLayer {
		if !arrows[d.name] {
			t.Errorf("baseline.json has no arrow for %s", d.name)
		}
	}
}
