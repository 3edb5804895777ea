// Command perfbench is the TEVoT repository benchmark. It runs one
// seeded workload in process, checks its outputs, and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) by
// name and unit.
//
//	perfbench --workload dta_sobel --seed 1 --seconds 30 --trace 0
//	perfbench compare base.jsonl head.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// full result, with the machine fingerprint, counts and checks. The
// exit code is 1 when any correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"dta_cycles_per_s", "1/s", "higher"},
	{"train_rows_per_s", "1/s", "higher"},
	{"predict_rows_per_s", "1/s", "higher"},
	{"accuracy_pct", "%", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"serve_p50_ms.low", "ms", "lower"},
	{"serve_p95_ms.low", "ms", "lower"},
	{"serve_p50_ms.high", "ms", "lower"},
	{"serve_p95_ms.high", "ms", "lower"},
	{"serve_sustained_rps", "1/s", "higher"},
}

var perLayer = []metricDef{
	{"circuits.build_s", "s", "lower"},
	{"sta.analyze_s", "s", "lower"},
	{"core.characterize_s", "s", "lower"},
	{"sim.events_per_cycle", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.uncached_ns_per_cycle", "ns", "lower"},
	{"sim.memo_hit_ratio", "ratio", "higher"},
	{"sim.memo_evictions", "count", "lower"},
	{"sim.slice_pruned_frac", "ratio", "higher"},
	{"features.fill_ns_per_row", "ns", "lower"},
	{"ml.fit_s", "s", "lower"},
	{"ml.predict_ns_per_row", "ns", "lower"},
	{"serve.queue_us.p50", "us", "lower"},
	{"serve.queue_us.p99", "us", "lower"},
	{"serve.inference_us.p50", "us", "lower"},
	{"serve.inference_us.p99", "us", "lower"},
	{"serve.handler_us.p50", "us", "lower"},
	{"serve.batch_items", "count", "higher"},
	{"serve.batch_rows", "count", "higher"},
	{"serve.flush_reason.size", "ratio", "higher"},
	{"serve.flush_reason.rows", "ratio", "lower"},
	{"serve.flush_reason.max_wait", "ratio", "lower"},
	{"serve.shed_ratio", "ratio", "lower"},
	{"serve.p99_ms.low", "ms", "lower"},
	{"serve.p99_ms.high", "ms", "lower"},
	{"serve.p99_all_ms.low", "ms", "lower"},
	{"serve.p99_all_ms.high", "ms", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"host.steal_frac", "ratio", "lower"},
	{"driver.lateness_ms.p99", "ms", "lower"},
	{"driver.invalid_window_frac", "ratio", "lower"},
	{"self_s.circuits", "s", "lower"},
	{"self_s.sta", "s", "lower"},
	{"self_s.core", "s", "lower"},
	{"self_s.features", "s", "lower"},
	{"self_s.ml", "s", "lower"},
	{"self_s.serve", "s", "lower"},
	{"trace.overhead_pct.dta", "%", "lower"},
	{"trace.overhead_pct.train", "%", "lower"},
	{"trace.overhead_pct.serve_p50", "%", "lower"},
}

// Result is one run's full record.
type Result struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Fingerprint Fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]Metric `json:"metrics"`
	Counts      map[string]int64  `json:"counts"`
	Checks      []Check           `json:"checks"`
	SelfTimes   []SelfTime        `json:"self_times,omitempty"`
}

// summary is the contract's last line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: dta_sobel, train_random or serve_mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "seconds the timed stages run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", "", "append the full result as a JSON line to this file")
	spans := fs.String("spans", "", "traced runs: write spans as JSON lines to this file")
	commit := fs.String("commit", "unknown", "commit of the measured source, for the fingerprint")
	source := fs.String("source", "unknown", "digest of the measured source tree, for the fingerprint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res := Result{Workload: *name, Seed: *seed, Seconds: *seconds, Traced: *trace == 1,
		Fingerprint: machineFingerprint(*commit, *source)}
	// A traced run measures the workload twice, untraced and then
	// traced, each for half of --seconds: the traced half gives the
	// per-layer numbers, the difference the tracing overhead.
	each := *seconds
	if *trace == 1 {
		each /= 2
	}
	plain := newRunEnv(ctx, *seed, each, nil)
	err := run(plain)
	e, defs := plain, endToEnd
	var tr *Tracer
	if err == nil && *trace == 1 {
		tr = NewTracer()
		e, defs = newRunEnv(ctx, *seed, each, tr), perLayer
		if err = run(e); err == nil {
			res.SelfTimes = SelfTimes(tr.Spans())
			setTraceMetrics(e, plain, res.SelfTimes)
			e.checks = append(plain.checks, e.checks...)
			e.attempted += plain.attempted
			e.failed += plain.failed
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res.Attempted, res.Failed, res.Checks, res.Counts = e.attempted, e.failed, e.checks, e.counts
	res.Metrics = make(map[string]Metric)
	for _, d := range endToEnd {
		if m, ok := plain.metrics[d.name]; ok {
			res.Metrics[d.name] = m
		}
	}
	for _, d := range perLayer {
		if m, ok := e.metrics[d.name]; ok {
			res.Metrics[d.name] = m
		}
	}
	sum := summary{Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]Metric)}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			res.Checks = append(res.Checks, Check{Name: "metric." + d.name, Detail: "not measured"})
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			res.Checks = append(res.Checks, Check{Name: "metric." + d.name, Detail: fmt.Sprintf("not a finite number: %v", m.Value)})
		default:
			sum.Metrics[d.name] = m
		}
	}
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	sum.Correct = res.Correct
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(res.Metrics, k)
		}
	}

	report(os.Stderr, &res, e.notes)
	if tr != nil && *spans != "" {
		if err := writeSpansFile(*spans, tr.Spans()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	full, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendLine(*out, full); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	last, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", full, last)
	if !res.Correct {
		return 1
	}
	return 0
}

// setTraceMetrics adds the per-layer self times and the tracing
// overhead, traced against untraced, to the traced run's metrics.
func setTraceMetrics(traced, plain *runEnv, table []SelfTime) {
	layers := LayerSelf(table)
	for _, l := range []string{"circuits", "sta", "core", "features", "ml", "serve"} {
		traced.set("self_s."+l, "s", layers[l].Self)
	}
	pct := func(a, b string, slower func(t, p float64) float64) float64 {
		t, p := traced.metrics[a].Value, plain.metrics[b].Value
		return 100 * slower(t, p)
	}
	traced.set("trace.overhead_pct.dta", "%", pct("dta_cycles_per_s", "dta_cycles_per_s", func(t, p float64) float64 { return p/t - 1 }))
	traced.set("trace.overhead_pct.train", "%", pct("train_rows_per_s", "train_rows_per_s", func(t, p float64) float64 { return p/t - 1 }))
	traced.set("trace.overhead_pct.serve_p50", "%", pct("serve_p50_ms.low", "serve_p50_ms.low", func(t, p float64) float64 { return t/p - 1 }))
}

func report(w *os.File, res *Result, notes []string) {
	fmt.Fprintf(w, "perfbench %s seed %d traced=%v: correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Traced, res.Correct, res.Attempted, res.Failed)
	fp := res.Fingerprint
	fmt.Fprintf(w, "  machine: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Commit)
	for _, n := range notes {
		fmt.Fprint(w, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	if len(res.SelfTimes) > 0 {
		fmt.Fprint(w, indent(FormatSelfTimes(res.SelfTimes)))
	}
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ") + "\n"
}

func writeSpansFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
