package main

import (
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/workload"
)

const (
	calibCycles = 400 // stream prefix the error-free clock is calibrated on

	sobelCycles = 4000 // dta_sobel: INT_MUL cycles per corner
	sobelTrain  = 1000 // dta_sobel: cycles per corner the model trains on, and held-out cycles
	sobelPiece  = 100  // dta_sobel: cycles per training or held-out piece

	randomTrain = 600 // train_random: training cycles per corner
	randomHeld  = 500 // train_random: held-out cycles per corner

	mixedAddTrain, mixedAddHeld = 600, 300 // serve_mixed INT_ADD, per corner
	mixedMulTrain, mixedMulHeld = 200, 100 // serve_mixed INT_MUL, per corner
	mixedMulCalib               = 200      // serve_mixed INT_MUL calibration cycles
)

// Table I corners of each workload. They are fixed, not drawn from the
// seed, because the event count per cycle, and so the DTA rate, moves
// with the corner; the seed draws operands, images and requests.
var (
	sobelCorners    = []cells.Corner{{V: 0.85, T: 25}, {V: 0.95, T: 75}}
	randomCorners   = []cells.Corner{{V: 0.81, T: 0}, {V: 0.87, T: 25}, {V: 0.93, T: 75}, {V: 1.00, T: 100}}
	mixedAddCorners = []cells.Corner{{V: 0.84, T: 25}, {V: 0.90, T: 50}, {V: 0.96, T: 75}}
	mixedMulCorners = []cells.Corner{{V: 0.86, T: 0}, {V: 0.94, T: 100}}
)

// shares split --seconds between the timed stages of a workload.
type shares struct{ dta, train, predict, serve float64 }

// flow is one workload's inputs, made by its setup.
type flow struct {
	jobs  []dtaJob
	split func(trs []*core.Trace) []trainJob       // training and held-out cycles
	serve func(models []*core.Model) []servedModel // what the ladder serves
	ld    ladder
	sh    shares
}

// timed runs the stages every workload shares, each for its share of
// the run: DTA passes, training passes, prediction windows and serve
// rounds, interleaved; then the runtime metrics and, traced, the layer
// probe.
func (e *runEnv) timed(f flow) error {
	rt := sampleRuntime()
	models, tjs, err := e.runStages(f)
	if err != nil {
		return err
	}
	e.reportRuntime(rt)
	if e.tr != nil {
		return e.layerProbe(f.jobs, tjs[0], models[0])
	}
	return nil
}

// stage is one kind of repeated unit of work in computeStages.
type stage struct {
	share float64
	spent time.Duration
	n     int
	run   func() error
}

// runStages interleaves DTA passes, training passes, prediction windows
// and serve rounds, always running the stage furthest below its share,
// until their shares of the run are spent and each has run minPasses
// times. Interleaving lets every stage's figures sample the host over
// the whole run rather than one slice of it. It reports the stages'
// metrics and returns the first pass's models and training jobs.
func (e *runEnv) runStages(f flow) (models []*core.Model, tjs []trainJob, err error) {
	var dtaRates, dtaAllocs, dtaSecs, trainRates, trainAllocs, predRates []float64
	var dtaSteal, trainSteal, predSteal []float64 // per unit, the host's steal share
	var trs []*core.Trace
	dta := func() error {
		a0 := sampleRuntime()
		sm := startSteal()
		t0 := time.Now()
		got, err := e.dtaPass(f.jobs)
		if err != nil {
			return err
		}
		dt := time.Since(t0).Seconds()
		dtaSteal = append(dtaSteal, e.steal(sm))
		dtaAllocs = append(dtaAllocs, allocMB(a0))
		dtaSecs = append(dtaSecs, dt)
		cycles := 0
		for _, tr := range got {
			cycles += tr.Cycles()
		}
		dtaRates = append(dtaRates, float64(cycles)/dt)
		if trs == nil {
			trs, tjs = got, f.split(got)
		}
		return nil
	}
	train := func() error {
		a0 := sampleRuntime()
		sm := startSteal()
		ms, rows, dt, err := e.trainPass(tjs)
		if err != nil {
			return err
		}
		trainSteal = append(trainSteal, e.steal(sm))
		trainAllocs = append(trainAllocs, allocMB(a0))
		trainRates = append(trainRates, float64(rows)/dt)
		if models == nil {
			models = ms
		}
		return nil
	}
	predict := func() error {
		sm := startSteal()
		r, err := e.predictWindow(models, tjs)
		predRates = append(predRates, r)
		predSteal = append(predSteal, e.steal(sm))
		return err
	}
	var rig *serveRig
	defer func() {
		if rig != nil && err != nil {
			rig.srv.Close()
		}
	}()
	serveRound := func() error {
		if rig == nil {
			var err error
			if rig, err = e.newServeRig(f.serve(models), f.ld); err != nil {
				return err
			}
		}
		return rig.round()
	}
	stages := []*stage{{share: f.sh.dta, run: dta}, {share: f.sh.train, run: train}, {share: f.sh.predict, run: predict}, {share: f.sh.serve, run: serveRound}}
	budget := e.budget(f.sh.dta + f.sh.train + f.sh.predict + f.sh.serve)
	for e.ctx.Err() == nil {
		var next *stage
		var total time.Duration
		for _, s := range stages {
			total += s.spent
			if next == nil && s.n < minPasses {
				next = s // in order: each stage needs the one before it
			}
		}
		if next == nil {
			if total >= budget {
				break
			}
			for _, s := range stages {
				if next == nil || s.spent.Seconds()/s.share < next.spent.Seconds()/next.share {
					next = s
				}
			}
		}
		t0 := time.Now()
		if err := next.run(); err != nil {
			return nil, nil, err
		}
		next.spent += time.Since(t0)
		next.n++
	}
	if err := e.ctx.Err(); err != nil {
		return nil, nil, err
	}

	e.set("dta_cycles_per_s", "1/s", quietMedian(dtaRates, dtaSteal))
	e.set("train_rows_per_s", "1/s", quietMedian(trainRates, trainSteal))
	e.set("predict_rows_per_s", "1/s", quietMedian(predRates, predSteal))
	e.set("alloc_mb", "MB", median(dtaAllocs)+median(trainAllocs))
	rig.finish()
	rig = nil // closed
	e.recordDTA(f.jobs, trs, quietMedian(dtaSecs, dtaSteal))
	e.set("host.steal_frac", "ratio", float64(e.stolen[0])/float64(max(1, e.stolen[1])))
	r := e.rng("ref.slices")
	for i, tr := range trs {
		if err := e.checkRef(f.jobs[i].us.u, tr, r.Intn(max(1, tr.Cycles()-refCycles)), refCycles); err != nil {
			return nil, nil, err
		}
	}
	return models, tjs, e.reportAccuracy(models, tjs)
}

// repeatSetup runs setup setupRepeats times, and on until the setups
// have taken a second or run setupMaxReps times, so that short setups
// still give a steady median. It reports the median timings and returns
// the last setup's flow.
func (e *runEnv) repeatSetup(setup func(parent int) (flow, []*unitSetup, error)) (flow, error) {
	var total, build, sta []float64
	var f flow
	var spent time.Duration
	for k := 0; k < setupRepeats || (spent < time.Second && k < setupMaxReps); k++ {
		t0 := time.Now()
		id := e.tr.Begin("bench.setup", -1)
		got, units, err := setup(id)
		e.tr.End(id)
		if err != nil {
			return flow{}, err
		}
		d := time.Since(t0)
		spent += d
		total = append(total, d.Seconds())
		var b, a float64
		for _, u := range units {
			b += u.buildS
			a += u.staS
		}
		build = append(build, b)
		sta = append(sta, a)
		f = got
	}
	e.set("setup_s", "s", median(total))
	e.set("circuits.build_s", "s", median(build))
	e.set("sta.analyze_s", "s", median(sta))
	return f, nil
}

// runDTASobel: INT_MUL over imaging operands at two corners. The sim
// kernel and the transition memo do most of the work.
func runDTASobel(e *runEnv) error {
	f, err := e.repeatSetup(func(parent int) (flow, []*unitSetup, error) {
		s, err := sobelStream(e, "dta_sobel.images", sobelCycles+1)
		if err != nil {
			return flow{}, nil, err
		}
		us, err := e.setupUnit(circuits.IntMul32, sobelCorners, s.Slice(0, calibCycles+1), parent)
		if err != nil {
			return flow{}, nil, err
		}
		f := flow{ld: probeLadder, sh: shares{dta: 0.48, train: 0.08, predict: 0.06, serve: 0.38}}
		for _, c := range us.corners {
			f.jobs = append(f.jobs, dtaJob{us, c, s})
		}
		// Training and held-out pieces alternate along the stream, so
		// both sample every image and the accuracy does not hang on
		// which images come last.
		f.split = func(trs []*core.Trace) []trainJob {
			tj := trainJob{fu: us.fu}
			for _, tr := range trs {
				stride := tr.Cycles() / (sobelTrain / sobelPiece)
				for lo := 0; lo+stride <= tr.Cycles(); lo += stride {
					tj.train = append(tj.train, subTrace(tr, lo, lo+sobelPiece))
					tj.held = append(tj.held, subTrace(tr, lo+stride/2, lo+stride/2+sobelPiece))
				}
			}
			return []trainJob{tj}
		}
		f.serve = func(ms []*core.Model) []servedModel {
			return []servedModel{{fu: us.fu.String(), model: ms[0], corners: us.corners, clocks: us.clocks, pool: s.Pairs}}
		}
		return f, []*unitSetup{us}, nil
	})
	if err != nil {
		return err
	}
	return e.timed(f)
}

// runTrainRandom: INT_ADD over uniformly random operands at four
// corners. The forest fit does most of the work; the memo only misses.
func runTrainRandom(e *runEnv) error {
	f, err := e.repeatSetup(func(parent int) (flow, []*unitSetup, error) {
		corners := randomCorners
		r := e.rng("train_random.streams")
		us, err := e.setupUnit(circuits.IntAdd32, corners, workload.RandomInt(calibCycles+1, r.Int63()), parent)
		if err != nil {
			return flow{}, nil, err
		}
		f := flow{ld: probeLadder, sh: shares{dta: 0.08, train: 0.48, predict: 0.06, serve: 0.38}}
		for _, c := range corners {
			f.jobs = append(f.jobs, dtaJob{us, c, workload.RandomInt(randomTrain+randomHeld+1, r.Int63())})
		}
		f.split = func(trs []*core.Trace) []trainJob {
			tj := trainJob{fu: us.fu}
			for _, tr := range trs {
				tj.train = append(tj.train, subTrace(tr, 0, randomTrain))
				tj.held = append(tj.held, subTrace(tr, randomTrain, tr.Cycles()))
			}
			return []trainJob{tj}
		}
		pool := f.jobs[0].s.Pairs
		f.serve = func(ms []*core.Model) []servedModel {
			return []servedModel{{fu: us.fu.String(), model: ms[0], corners: corners, clocks: us.clocks, pool: pool}}
		}
		return f, []*unitSetup{us}, nil
	})
	if err != nil {
		return err
	}
	return e.timed(f)
}

// runServeMixed: INT_ADD and INT_MUL models trained during setup and
// served together through the full handler and coalescer, at a ladder
// of offered rates. Per request, JSON, the handler and the coalescer
// handoff cost more than the forest.
func runServeMixed(e *runEnv) error {
	f, err := e.repeatSetup(func(parent int) (flow, []*unitSetup, error) {
		r := e.rng("serve_mixed.streams")
		addCorners, mulCorners := mixedAddCorners, mixedMulCorners
		add, err := e.setupUnit(circuits.IntAdd32, addCorners, workload.RandomInt(calibCycles+1, r.Int63()), parent)
		if err != nil {
			return flow{}, nil, err
		}
		mul, err := e.setupUnit(circuits.IntMul32, mulCorners, workload.RandomInt(mixedMulCalib+1, r.Int63()), parent)
		if err != nil {
			return flow{}, nil, err
		}
		f := flow{ld: mixedLadder, sh: shares{dta: 0.08, train: 0.14, predict: 0.06, serve: 0.72}}
		for _, c := range addCorners {
			f.jobs = append(f.jobs, dtaJob{add, c, workload.RandomInt(mixedAddTrain+mixedAddHeld+1, r.Int63())})
		}
		for _, c := range mulCorners {
			f.jobs = append(f.jobs, dtaJob{mul, c, workload.RandomInt(mixedMulTrain+mixedMulHeld+1, r.Int63())})
		}
		f.split = func(trs []*core.Trace) []trainJob {
			tjs := []trainJob{{fu: add.fu}, {fu: mul.fu}}
			for i, tr := range trs {
				j, n := &tjs[0], mixedAddTrain
				if i >= len(addCorners) {
					j, n = &tjs[1], mixedMulTrain
				}
				j.train = append(j.train, subTrace(tr, 0, n))
				j.held = append(j.held, subTrace(tr, n, tr.Cycles()))
			}
			return tjs
		}
		// The served models are trained here, in setup.
		trs, err := e.dtaPass(f.jobs)
		if err != nil {
			return flow{}, nil, err
		}
		models, _, _, err := e.trainPass(f.split(trs))
		if err != nil {
			return flow{}, nil, err
		}
		f.serve = func([]*core.Model) []servedModel {
			return []servedModel{
				{fu: add.fu.String(), model: models[0], corners: addCorners, clocks: add.clocks, pool: f.jobs[0].s.Pairs},
				{fu: mul.fu.String(), model: models[1], corners: mulCorners, clocks: mul.clocks, pool: f.jobs[len(f.jobs)-1].s.Pairs},
			}
		}
		return f, []*unitSetup{add, mul}, nil
	})
	if err != nil {
		return err
	}
	return e.timed(f)
}

// reportRuntime sets the runtime.* metrics over the timed stages.
func (e *runEnv) reportRuntime(since runtimeSample) {
	now := sampleRuntime()
	frac := 0.0
	if d := now.totalCPU - since.totalCPU; d > 0 {
		frac = (now.gcCPU - since.gcCPU) / d
	}
	e.set("runtime.gc_cpu_frac", "ratio", frac)
	e.set("runtime.gc_cycles", "count", float64(now.numGC-since.numGC))
	e.set("runtime.peak_rss_mb", "MB", peakRSSMB())
}
