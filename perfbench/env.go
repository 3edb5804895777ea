package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/workload"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Check is one correctness check of a run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runEnv carries one workload run: its budget, its tracer (nil when
// untraced), and what it has measured and checked so far.
type runEnv struct {
	ctx     context.Context
	seed    int64
	seconds float64
	tr      *Tracer

	metrics   map[string]Metric
	counts    map[string]int64 // exact counts, repeatable for a seed
	stolen    [2]uint64        // steal and total CPU ticks over every timed unit
	checks    []Check
	notes     []string // human-readable detail for standard error
	attempted int
	failed    int
}

func newRunEnv(ctx context.Context, seed int64, seconds float64, tr *Tracer) *runEnv {
	return &runEnv{ctx: ctx, seed: seed, seconds: seconds, tr: tr,
		metrics: make(map[string]Metric), counts: make(map[string]int64)}
}

func (e *runEnv) set(name, unit string, v float64) { e.metrics[name] = Metric{Value: v, Unit: unit} }

func (e *runEnv) check(name string, ok bool, format string, args ...any) {
	e.checks = append(e.checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// op counts one attempted operation and returns err unchanged.
func (e *runEnv) op(err error) error {
	e.attempted++
	if err != nil {
		e.failed++
	}
	return err
}

// budget is a share of the run's measured seconds.
func (e *runEnv) budget(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// rng derives an independent generator for one named use of the seed,
// so adding a draw in one place never shifts the inputs of another.
func (e *runEnv) rng(use string) *rand.Rand {
	h := uint64(14695981039346656037)
	for _, c := range use {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(e.seed ^ int64(h)))
}

// Table I speedups: capture clocks 5, 10 and 15 % faster than the
// calibrated error-free clock. accuracyClock indexes the 10 % one.
var speedups = []float64{0.05, 0.10, 0.15}

const accuracyClock = 1

// unitSetup is one functional unit ready to characterize: netlist,
// per-corner STA, and capture clocks calibrated on a stream prefix.
type unitSetup struct {
	fu      circuits.FU
	u       *core.FUnit
	corners []cells.Corner
	clocks  map[cells.Corner][]float64

	buildS, staS float64
}

// setupUnit builds fu's netlist, analyses every corner and calibrates
// the error-free clock on calib, recording each layer call as a span.
func (e *runEnv) setupUnit(fu circuits.FU, corners []cells.Corner, calib *workload.Stream, parent int) (*unitSetup, error) {
	us := &unitSetup{fu: fu, corners: corners, clocks: make(map[cells.Corner][]float64)}
	t0 := time.Now()
	id := e.tr.Begin("circuits.build", parent)
	nl, err := fu.Build()
	e.tr.End(id)
	us.buildS = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("build %v: %w", fu, err)
	}
	if us.u, err = core.NewFUnitFromNetlist(fu, nl); err != nil {
		return nil, err
	}
	for _, c := range corners {
		t0 := time.Now()
		id := e.tr.Begin("sta.analyze", parent)
		_, err := us.u.Static(c)
		e.tr.End(id)
		us.staS += time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("sta %v %v: %w", fu, c, err)
		}
		id = e.tr.Begin("core.calibrate", parent)
		_, err = us.u.CalibrateBaseClockOptsContext(e.ctx, c, calib, core.CharacterizeOptions{})
		e.tr.End(id)
		if err != nil {
			return nil, fmt.Errorf("calibrate %v %v: %w", fu, c, err)
		}
		if us.clocks[c], err = us.u.ClockPeriods(c, speedups); err != nil {
			return nil, err
		}
	}
	return us, nil
}

// subTrace is cycles [lo, hi) of a characterization trace, usable as a
// training or held-out trace of its own.
func subTrace(tr *core.Trace, lo, hi int) *core.Trace {
	st := &core.Trace{FU: tr.FU, Corner: tr.Corner, Stream: tr.Stream.Slice(lo, hi+1),
		Delays: tr.Delays[lo:hi], ClockPeriods: tr.ClockPeriods, Errors: make([][]bool, len(tr.Errors))}
	for k := range tr.Errors {
		st.Errors[k] = tr.Errors[k][lo:hi]
	}
	return st
}

// checkRef re-simulates cycles [lo, lo+n) of tr on the reference heap
// kernel and counts delay and error mismatches; there must be none.
func (e *runEnv) checkRef(u *core.FUnit, tr *core.Trace, lo, n int) error {
	if lo+n > tr.Cycles() {
		lo, n = 0, min(n, tr.Cycles())
	}
	ref, err := core.CharacterizeOptsContext(e.ctx, u, tr.Corner, tr.Stream.Slice(lo, lo+n+1), tr.ClockPeriods, core.CharacterizeOptions{RefKernel: true})
	if err != nil {
		return err
	}
	bad := 0
	for i := 0; i < n; i++ {
		if ref.Delays[i] != tr.Delays[lo+i] {
			bad++
			continue
		}
		for k := range ref.Errors {
			if ref.Errors[k][i] != tr.Errors[k][lo+i] {
				bad++
				break
			}
		}
	}
	e.check(fmt.Sprintf("ref_kernel.%v.%v", tr.FU, tr.Corner), bad == 0,
		"%d of %d re-simulated cycles [%d,%d) mismatch", bad, n, lo, lo+n)
	return nil
}

// matches counts the cycles whose predicted error at capture clock k
// (delay above the period) agrees with tr's ground truth: the Eq. 4
// numerator.
func matches(pred []float64, tr *core.Trace, k int) int {
	tclk := tr.ClockPeriods[k]
	n := 0
	for i, d := range pred {
		if (d > tclk) == tr.Errors[k][i] {
			n++
		}
	}
	return n
}

// cpuTicks reads the machine's cumulative CPU time stolen by the
// hypervisor (the steal column of /proc/stat) and its total CPU time,
// in clock ticks; zeros where /proc/stat is unavailable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealMeter times one unit of measured work against the hypervisor.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

// steal returns the share of the machine's CPU time the hypervisor
// stole since m started, and adds it to the run's host.steal_frac.
func (e *runEnv) steal(m stealMeter) float64 {
	s, t := cpuTicks()
	if t <= m.total || s < m.steal {
		return 0
	}
	e.stolen[0] += s - m.steal
	e.stolen[1] += t - m.total
	return float64(s-m.steal) / float64(t-m.total)
}

// quiet returns the indexes of the units whose steal share is at most
// the median over all units: the quieter half, or more when shares tie.
// On a shared host the hypervisor gives this machine's CPUs to other
// guests in episodes of tens of seconds, and a unit measured in one
// runs slower by a share the code under test has no part in; the
// metrics take their medians over the quiet units. Steal is the one
// signal used: a unit slowed by the program itself (a pause, a longer
// path) is never left out.
func quiet(steals []float64) []int {
	lim := median(steals)
	var idx []int
	for i, s := range steals {
		if s <= lim {
			idx = append(idx, i)
		}
	}
	return idx
}

// quietMedian is the median of xs over the quiet units (xs[i] was
// measured with steal share steals[i]).
func quietMedian(xs, steals []float64) float64 {
	var q []float64
	for _, i := range quiet(steals) {
		q = append(q, xs[i])
	}
	return median(q)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; +Inf entries sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	f := pos - float64(lo)
	if f == 0 {
		return s[lo]
	}
	return s[lo] + f*(s[lo+1]-s[lo])
}

// runtimeSample is the process state the runtime.* metrics difference.
type runtimeSample struct {
	gcCPU, totalCPU float64
	numGC           uint32
	totalAlloc      uint64
}

func sampleRuntime() runtimeSample {
	ss := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(ss)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs := runtimeSample{numGC: ms.NumGC, totalAlloc: ms.TotalAlloc}
	if ss[0].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = ss[0].Value.Float64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		rs.totalCPU = ss[1].Value.Float64()
	}
	return rs
}

// allocMB returns the heap MB allocated since an earlier sample.
func allocMB(since runtimeSample) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-since.totalAlloc) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
