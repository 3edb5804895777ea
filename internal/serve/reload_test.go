package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/workload"
)

// TestReloadSwapsValidatedModel: a good gob swaps in, bumps the
// generation, and subsequent predictions use it.
func TestReloadSwapsValidatedModel(t *testing.T) {
	dir := t.TempDir()
	m2, err := trainModel(23) // same FU/dim, different training data
	if err != nil {
		t.Fatal(err)
	}
	path := writeModelFile(t, dir, "v2.tevot", m2)
	s, ts := newTestServer(t, nil)

	resp, err := http.Post(ts.URL+"/admin/reload", "application/json",
		strings.NewReader(`{"path":`+jq(path)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, data)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", s.Generation())
	}
	presp, pdata := postPredict(t, ts.URL, validBody(4))
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("predict after reload: %d: %s", presp.StatusCode, pdata)
	}
	var out predictResponse
	if err := json.Unmarshal(pdata, &out); err != nil {
		t.Fatal(err)
	}
	if out.ModelGeneration != 2 {
		t.Errorf("response generation = %d, want 2", out.ModelGeneration)
	}
}

// TestReloadRejectsCorruptAndKeepsServing: truncated and bit-flipped
// gobs — and a dimension-incompatible model — are rejected with 422
// while the old model keeps serving, generation unchanged.
func TestReloadRejectsCorruptAndKeepsServing(t *testing.T) {
	dir := t.TempDir()
	m := trainedModel(t)
	good := writeModelFile(t, dir, "good.tevot", m)
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	truncated := dir + "/truncated.tevot"
	if err := os.WriteFile(truncated, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := dir + "/garbage.tevot"
	if err := os.WriteFile(garbage, []byte("not a model at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A structurally valid model with the wrong feature dimension: the
	// no-history ablation shape must be refused by the dim gate.
	nhCfg := core.DefaultConfig()
	nhCfg.History = false
	nh, err := core.Train(circuits.IntAdd32, trainedTrace(t), nhCfg)
	if err != nil {
		t.Fatal(err)
	}
	nhPath := writeModelFile(t, dir, "nh.tevot", nh)

	s, ts := newTestServer(t, nil)
	for _, bad := range []string{truncated, garbage, nhPath, dir + "/missing.tevot"} {
		resp, err := http.Post(ts.URL+"/admin/reload", "application/json",
			strings.NewReader(`{"path":`+jq(bad)+`}`))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("reload of %s: status %d, want 422: %s", bad, resp.StatusCode, data)
		}
		if e := decodeError(t, data); e.Error.Code != "reload_failed" {
			t.Errorf("reload of %s: code %q", bad, e.Error.Code)
		}
		if s.Generation() != 1 {
			t.Fatalf("failed reload moved the generation to %d", s.Generation())
		}
		// The old model must still serve correctly after every rejection.
		presp, pdata := postPredict(t, ts.URL, validBody(3))
		if presp.StatusCode != http.StatusOK {
			t.Fatalf("predict after rejected reload of %s: %d: %s", bad, presp.StatusCode, pdata)
		}
	}
}

// TestConcurrentPredictDuringReload is the torn-model race: predictions
// hammer the service while models hot-swap underneath them. Every
// response must be a 200 with a generation/delay set from one coherent
// model — run under -race by check.sh, where a torn read would trip.
func TestConcurrentPredictDuringReload(t *testing.T) {
	dir := t.TempDir()
	mA := trainedModel(t)
	mB, err := trainModel(31)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{
		writeModelFile(t, dir, "a.tevot", mA),
		writeModelFile(t, dir, "b.tevot", mB),
	}
	s, ts := newTestServer(t, func(c *Config) { c.Workers = 4; c.QueueDepth = 64 })

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	body := validBody(5)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- io.ErrUnexpectedEOF
					t.Errorf("predict during reload: %d: %s", resp.StatusCode, data)
					return
				}
				var out predictResponse
				if err := json.Unmarshal(data, &out); err != nil {
					errCh <- err
					return
				}
				if out.ModelGeneration < 1 || len(out.Delays) != 4 {
					t.Errorf("torn response: gen=%d delays=%d", out.ModelGeneration, len(out.Delays))
				}
			}
		}()
	}
	for i := 0; i < 12; i++ {
		if _, err := s.Reload(paths[i%2]); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("predict goroutine failed: %v", err)
	default:
	}
	if got := s.Generation(); got != 13 {
		t.Errorf("generation = %d, want 13 (1 + 12 reloads)", got)
	}
}

// trainedTrace characterizes a small training trace for tests that need
// to train model variants.
func trainedTrace(t *testing.T) []*core.Trace {
	t.Helper()
	u, err := core.NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.CharacterizeOptsContext(context.Background(), u, cells.Corner{V: 0.88, T: 50}, workload.RandomInt(301, 5), nil, core.CharacterizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return []*core.Trace{tr}
}

// jq JSON-quotes a path for inline request bodies.
func jq(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
