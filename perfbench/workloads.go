package main

import (
	"fmt"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/features"
	"tevot/internal/imaging"
	"tevot/internal/inject"
	"tevot/internal/ml"
	"tevot/internal/workload"
)

// Every workload runs the TEVoT flow, DTA -> train -> predict -> serve,
// on its own inputs; they differ in which stage does most of the work.
// Shares split the run's --seconds between the timed stages.
var workloads = map[string]func(e *runEnv) error{
	"dta_sobel":    runDTASobel,
	"train_random": runTrainRandom,
	"serve_mixed":  runServeMixed,
}

const (
	setupRepeats = 5  // setups per run at least; setup_s is their median
	setupMaxReps = 25 // setups per run at most
	minPasses    = 3  // timed passes per stage at least
	refCycles    = 64 // cycles per trace re-simulated on the reference kernel
)

// probeLadder is the short serve stage of dta_sobel and train_random.
var probeLadder = ladder{rates: []float64{1000, 4000}, low: 0, high: 1}

// mixedLadder is serve_mixed's full ladder of offered rates.
var mixedLadder = ladder{rates: []float64{1000, 2000, 4000, 6000}, low: 0, high: 3}

// sobelStream records the INT_MUL operands of Sobel filtering over
// seed-picked synthetic images, alternately of the raw image and of its
// Gaussian blur, sobelChunk pairs from each, until n pairs are recorded.
// Many images per stream keep the memo hit ratio and the event count
// close from one seed to the next.
func sobelStream(e *runEnv, use string, n int) (*workload.Stream, error) {
	const sobelChunk = 500
	r := e.rng(use)
	s := &workload.Stream{Name: "sobel_gauss"}
	for i := 0; len(s.Pairs) < n; i++ {
		img := imaging.Synthetic(r.Intn(1<<20), 16, 16)
		if i%2 == 1 {
			img = imaging.Gaussian(img, imaging.Exact{})
		}
		rec := inject.NewRecording(sobelChunk)
		imaging.Sobel(img, rec)
		chunk, err := rec.Stream(circuits.IntMul32)
		if err != nil {
			return nil, err
		}
		s.Pairs = append(s.Pairs, chunk.Pairs[:min(len(chunk.Pairs), n-len(s.Pairs))]...)
	}
	return s, nil
}

// dtaJob is one characterization of a pass: a unit at a corner over a
// stream.
type dtaJob struct {
	us *unitSetup
	c  cells.Corner
	s  *workload.Stream
}

// dtaPass characterizes every job once with default options.
func (e *runEnv) dtaPass(jobs []dtaJob) ([]*core.Trace, error) {
	trs := make([]*core.Trace, len(jobs))
	for i, j := range jobs {
		id := e.tr.Begin("core.characterize", -1)
		tr, err := core.CharacterizeOptsContext(e.ctx, j.us.u, j.c, j.s, j.us.clocks[j.c], core.CharacterizeOptions{})
		e.tr.End(id)
		if e.op(err) != nil {
			return nil, fmt.Errorf("characterize %v %v: %w", j.us.fu, j.c, err)
		}
		trs[i] = tr
	}
	return trs, nil
}

// recordDTA sets the sim.* and core.characterize metrics of one pass.
// Hits, misses and events repeat exactly for a seed.
func (e *runEnv) recordDTA(jobs []dtaJob, trs []*core.Trace, passS float64) {
	var cycles, events, hits, misses, evict, pruned, gateWindows int64
	for i, tr := range trs {
		cycles += int64(tr.Cycles())
		events += int64(tr.Events)
		hits += tr.MemoHits
		misses += tr.MemoMisses
		evict += tr.MemoEvictions
		pruned += tr.SlicePrunedGateWindows
		gateWindows += tr.SliceWindows * int64(len(jobs[i].us.u.NL.Gates))
	}
	e.counts["sim.events"] = events
	e.counts["sim.memo_hits"] = hits
	e.counts["sim.memo_misses"] = misses
	e.set("core.characterize_s", "s", passS)
	e.set("sim.events_per_cycle", "count", float64(events)/float64(cycles))
	e.set("sim.memo_hit_ratio", "ratio", float64(hits)/float64(max(1, hits+misses)))
	e.set("sim.memo_evictions", "count", float64(evict))
	e.set("sim.slice_pruned_frac", "ratio", float64(pruned)/float64(max(1, gateWindows)))
}

// trainJob is one unit's model: trained on train, scored on held.
type trainJob struct {
	fu          circuits.FU
	train, held []*core.Trace
}

// trainPass trains every job's model once with the paper's default
// configuration and returns the models, the rows fitted and the time.
func (e *runEnv) trainPass(jobs []trainJob) (ms []*core.Model, rows int, secs float64, err error) {
	t0 := time.Now()
	for _, j := range jobs {
		id := e.tr.Begin("core.train", -1)
		m, err := core.Train(j.fu, j.train, core.DefaultConfig())
		e.tr.End(id)
		if e.op(err) != nil {
			return nil, 0, 0, fmt.Errorf("train %v: %w", j.fu, err)
		}
		ms = append(ms, m)
		for _, tr := range j.train {
			rows += tr.Cycles()
		}
	}
	return ms, rows, time.Since(t0).Seconds(), nil
}

// predictWindow predicts every held-out trace, repeated for at least
// predictWindowDur, and returns rows/s.
func (e *runEnv) predictWindow(ms []*core.Model, jobs []trainJob) (float64, error) {
	const predictWindowDur = 50 * time.Millisecond
	rows := 0
	t0 := time.Now()
	for time.Since(t0) < predictWindowDur {
		for i, j := range jobs {
			for _, tr := range j.held {
				id := e.tr.Begin("core.predict", -1)
				_, err := ms[i].PredictDelays(tr.Corner, tr.Stream)
				e.tr.End(id)
				if e.op(err) != nil {
					return 0, err
				}
				rows += tr.Cycles()
			}
		}
	}
	return float64(rows) / time.Since(t0).Seconds(), nil
}

// accuracyFloor is the lowest Eq. 4 accuracy (%) a correct run shows.
const accuracyFloor = 80

// reportAccuracy sets accuracy_pct, the Eq. 4 accuracy over every
// held-out cycle at the 10 % overclock, and checks it against the floor.
func (e *runEnv) reportAccuracy(ms []*core.Model, jobs []trainJob) error {
	match, total := 0, 0
	for i, j := range jobs {
		for _, tr := range j.held {
			pred, err := ms[i].PredictDelays(tr.Corner, tr.Stream)
			if err != nil {
				return err
			}
			match += matches(pred, tr, accuracyClock)
			total += len(pred)
		}
	}
	acc := 100 * float64(match) / float64(total)
	e.set("accuracy_pct", "%", acc)
	e.check("accuracy_floor", acc >= accuracyFloor, "Eq. 4 accuracy %.3f%% at 10%% overclock, floor %d%%", acc, accuracyFloor)
	return nil
}

// layerProbe times the sim kernel without the memo, and the features
// and ml public calls on the rows core.Train builds, checking that the
// forest they fit predicts exactly as the trained model does. Traced
// runs only.
func (e *runEnv) layerProbe(jobs []dtaJob, tj trainJob, m *core.Model) error {
	j := jobs[0]
	n := min(1000, j.s.Len()-1)
	t0 := time.Now()
	id := e.tr.Begin("core.characterize_memo_off", -1)
	tr, err := core.CharacterizeOptsContext(e.ctx, j.us.u, j.c, j.s.Slice(0, n+1), nil, core.CharacterizeOptions{Workers: 1, MemoOff: true})
	e.tr.End(id)
	if err != nil {
		return err
	}
	dt := float64(time.Since(t0).Nanoseconds())
	e.set("sim.uncached_ns_per_cycle", "ns", dt/float64(n))
	e.set("sim.ns_per_event", "ns", dt/float64(tr.Events))

	rows := 0
	for _, tr := range tj.train {
		rows += tr.Cycles()
	}
	t0 = time.Now()
	id = e.tr.Begin("features.fill", -1)
	X := make([][]float64, 0, rows)
	y := make([]float64, 0, rows)
	backing := make([]float64, rows*features.Dim)
	for _, tr := range tj.train {
		p := tr.Stream.Pairs
		for i := 0; i < tr.Cycles(); i++ {
			row := backing[len(X)*features.Dim : (len(X)+1)*features.Dim : (len(X)+1)*features.Dim]
			features.VectorInto(row, tr.Corner, p[i+1], p[i])
			X = append(X, row)
			y = append(y, tr.Delays[i])
		}
	}
	e.tr.End(id)
	e.set("features.fill_ns_per_row", "ns", float64(time.Since(t0).Nanoseconds())/float64(rows))

	cfg := core.DefaultConfig().Forest
	cfg.Tree.Mode = ml.Regression
	f := ml.NewRandomForest(cfg)
	t0 = time.Now()
	id = e.tr.Begin("ml.fit", -1)
	err = f.Fit(X, y)
	e.tr.End(id)
	if err != nil {
		return err
	}
	e.set("ml.fit_s", "s", time.Since(t0).Seconds())

	held := tj.held[0]
	want, err := m.PredictDelays(held.Corner, held.Stream)
	if err != nil {
		return err
	}
	H := make([][]float64, held.Cycles())
	for i := range H {
		H[i] = features.Vector(held.Corner, held.Stream.Pairs[i+1], held.Stream.Pairs[i])
	}
	var got []float64
	reps := 0
	t0 = time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		id = e.tr.Begin("ml.predict", -1)
		got = f.PredictBatch(H)
		e.tr.End(id)
		reps++
	}
	e.set("ml.predict_ns_per_row", "ns", float64(time.Since(t0).Nanoseconds())/float64(reps*len(H)))
	same := equalDelays(got, want)
	e.check("ml.refit_identical", same, "forest fit through features and ml predicts %d held-out rows as core.Train's model does: %v", len(want), same)
	return nil
}
