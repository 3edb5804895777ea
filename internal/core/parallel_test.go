package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/workload"
)

// equalTraces compares everything a characterization produces: the
// per-cycle delays, every error matrix, and the aggregates.
func equalTraces(t *testing.T, seq, par *Trace) {
	t.Helper()
	if !reflect.DeepEqual(seq.Delays, par.Delays) {
		t.Fatal("parallel Delays differ from sequential")
	}
	if !reflect.DeepEqual(seq.Errors, par.Errors) {
		t.Fatal("parallel Errors differ from sequential")
	}
	if seq.MaxDelay != par.MaxDelay {
		t.Fatalf("MaxDelay: sequential %v, parallel %v", seq.MaxDelay, par.MaxDelay)
	}
	if seq.StaticDelay != par.StaticDelay {
		t.Fatalf("StaticDelay: sequential %v, parallel %v", seq.StaticDelay, par.StaticDelay)
	}
	if seq.Events != par.Events {
		t.Fatalf("Events: sequential %d, parallel %d", seq.Events, par.Events)
	}
	for k := range seq.Errors {
		if seq.TER(k) != par.TER(k) {
			t.Fatalf("TER(%d): sequential %v, parallel %v", k, seq.TER(k), par.TER(k))
		}
	}
}

// TestCharacterizeShardingDeterminism is the bit-identity guarantee of
// the sharded hot path: Workers:8 must reproduce the Workers:1 trace
// exactly — every delay, every error bit, every aggregate — across
// units and corners.
func TestCharacterizeShardingDeterminism(t *testing.T) {
	fus := []circuits.FU{circuits.IntAdd32, circuits.FPAdd32}
	if !testing.Short() {
		fus = append(fus, circuits.IntMul32)
	}
	corners := []cells.Corner{{V: 0.85, T: 50}, {V: 0.95, T: 100}}
	for _, fu := range fus {
		u, err := NewFUnit(fu)
		if err != nil {
			t.Fatal(err)
		}
		// 521 pairs = 520 cycles: enough for 8 shards of >= minShardCycles,
		// small enough that the multiplier stays affordable under -race.
		stream := workload.Random(fu.IsFloat(), 521, 7)
		for _, corner := range corners {
			static, err := u.Static(corner)
			if err != nil {
				t.Fatal(err)
			}
			// Aggressive and mild capture clocks, so the error matrices hold
			// a mix of both outcomes.
			clocks := []float64{0.5 * static.Delay, 0.9 * static.Delay}
			seq, err := CharacterizeOptsContext(context.Background(), u, corner, stream, clocks, CharacterizeOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := CharacterizeOptsContext(context.Background(), u, corner, stream, clocks, CharacterizeOptions{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v %v: TER %.4f / %.4f, max delay %.1f ps", fu, corner, seq.TER(0), seq.TER(1), seq.MaxDelay)
			equalTraces(t, seq, par)
		}
	}
}

// TestCharacterizeRefKernelEquivalence runs the same characterization on
// the fast calendar-queue kernel and the reference heap kernel: a full
// pipeline-level replay of the sim package's differential guarantee.
// Sharding is exercised on both sides since each shard gets its own
// runner of the selected kernel.
func TestCharacterizeRefKernelEquivalence(t *testing.T) {
	u, err := NewFUnit(circuits.FPAdd32)
	if err != nil {
		t.Fatal(err)
	}
	corner := cells.Corner{V: 0.83, T: 75}
	stream := workload.Random(true, 300, 11)
	static, err := u.Static(corner)
	if err != nil {
		t.Fatal(err)
	}
	clocks := []float64{0.5 * static.Delay, 0.9 * static.Delay}
	fast, err := CharacterizeOptsContext(context.Background(), u, corner, stream, clocks, CharacterizeOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := CharacterizeOptsContext(context.Background(), u, corner, stream, clocks, CharacterizeOptions{Workers: 4, RefKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, fast, ref)
}

// TestCharacterizeConcurrentSharedFUnit stresses the layering the sweep
// runner produces: several goroutines characterize the same FUnit at
// once, each itself sharded. Run under -race (scripts/check.sh does) it
// proves the shared STA cache and the per-shard runners do not race;
// the results must also all be identical.
func TestCharacterizeConcurrentSharedFUnit(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	corner := cells.Corner{V: 0.85, T: 50}
	stream := workload.Random(false, 400, 3)
	clocks := []float64{500, 700}
	const callers = 4
	traces := make([]*Trace, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traces[i], errs[i] = CharacterizeOptsContext(context.Background(), u, corner, stream, clocks, CharacterizeOptions{Workers: 4})
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if i > 0 {
			equalTraces(t, traces[0], traces[i])
		}
	}
}

// TestStaticSingleflight asserts the STA dedup: any number of
// concurrent Static calls at one uncached corner execute exactly one
// analysis, and all see the same result.
func TestStaticSingleflight(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	corner := cells.Corner{V: 0.9, T: 75}
	const callers = 8
	var start, wg sync.WaitGroup
	start.Add(1)
	results := make([]float64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			res, err := u.Static(corner)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.Delay
		}(i)
	}
	start.Done()
	wg.Wait()
	u.mu.Lock()
	runs := u.staRuns
	u.mu.Unlock()
	if runs != 1 {
		t.Fatalf("%d concurrent Static calls executed %d analyses; want 1", callers, runs)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw delay %v, caller 0 saw %v", i, results[i], results[0])
		}
	}
}
