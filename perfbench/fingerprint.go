package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Fingerprint identifies where and on what a result was measured. The
// machine fields must match for two result sets to be compared; Commit
// and Source name the measured code, which is what a comparison varies.
type Fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func machineFingerprint(commit, source string) Fingerprint {
	return Fingerprint{CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Source: source}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// machine is the part of a fingerprint that must match.
func (f Fingerprint) machine() string {
	return fmt.Sprintf("%s | nproc %d | GOMAXPROCS %d | %s", f.CPUModel, f.NProc, f.GOMAXPROCS, f.GoVersion)
}

// benchSpec is the part of BENCHMARK.json a comparison reads.
type benchSpec struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

// boundDef is one end-to-end metric with the share of the base median
// by which it may worsen.
type boundDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var (
	errFingerprint = errors.New("fingerprint mismatch")
	errRunLength   = errors.New("run length mismatch")
)

// maxLateShare is the share of a run's serve windows in which the load
// generator may fall behind its schedule (driver.invalid_window_frac)
// before compare sets the run apart: the host stalled the process, and
// the run measured the host rather than the code.
const maxLateShare = 0.5

// comparison is the outcome of comparing two result sets.
type comparison struct {
	compared  int
	regressed []string
	lines     []string
}

// compareResults compares base and head workload by workload on every
// end-to-end metric both hold, by median over their correct untraced
// runs. It refuses results from different machines or of different
// lengths, sets apart runs whose load generator fell behind, and fails
// when it compared nothing.
func compareResults(spec benchSpec, base, head []Result) (comparison, error) {
	var c comparison
	keep := func(side string, rs []Result) []Result {
		var out []Result
		late := 0
		for _, r := range rs {
			switch {
			case r.Traced || !r.Correct:
			case r.Metrics["driver.invalid_window_frac"].Value > maxLateShare:
				late++
			default:
				out = append(out, r)
			}
		}
		if late > 0 {
			c.lines = append(c.lines, fmt.Sprintf("%s: set apart %d runs in which the load generator fell behind in more than %.0f%% of its windows", side, late, 100*maxLateShare))
		}
		return out
	}
	base, head = keep("base", base), keep("head", head)
	machines, lengths := map[string]bool{}, map[float64]bool{}
	for _, r := range append(append([]Result(nil), base...), head...) {
		machines[r.Fingerprint.machine()] = true
		lengths[r.Seconds] = true
	}
	if len(machines) > 1 {
		ms := make([]string, 0, len(machines))
		for m := range machines {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		return c, fmt.Errorf("%w, refusing to compare:\n  %s", errFingerprint, strings.Join(ms, "\n  "))
	}
	if len(lengths) > 1 {
		ls := make([]float64, 0, len(lengths))
		for l := range lengths {
			ls = append(ls, l)
		}
		sort.Float64s(ls)
		return c, fmt.Errorf("%w: runs of %v seconds, refusing to compare", errRunLength, ls)
	}
	values := func(rs []Result, wl, metric string) []float64 {
		var v []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl {
				v = append(v, m.Value)
			}
		}
		return v
	}
	wls := map[string]bool{}
	for _, r := range head {
		wls[r.Workload] = true
	}
	names := make([]string, 0, len(wls))
	for w := range wls {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			b, h := values(base, wl, m.Name), values(head, wl, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			c.compared++
			mb, mh := median(b), median(h)
			worse := (mh - mb) / mb
			if m.Better == "higher" {
				worse = (mb - mh) / mb
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSED"
				c.regressed = append(c.regressed, wl+"/"+m.Name)
			}
			c.lines = append(c.lines, fmt.Sprintf("%-14s %-22s base %12.6g (n=%d) head %12.6g (n=%d) worse %+7.2f%% bound %5.1f%% %s",
				wl, m.Name, mb, len(b), mh, len(h), 100*worse, 100*m.Bound, verdict))
		}
	}
	if c.compared == 0 {
		return c, fmt.Errorf("compared zero metrics: no workload has correct untraced results on both sides")
	}
	return c, nil
}

// compareMain implements `perfbench compare [-bench BENCHMARK.json]
// base.jsonl head.jsonl`. Exit 0: nothing regressed; 1: a regression,
// or nothing compared; 2: usage error, or a fingerprint or run length
// mismatch.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	base, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	head, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	c, err := compareResults(spec, base, head)
	for _, l := range c.lines {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		if errors.Is(err, errFingerprint) || errors.Is(err, errRunLength) {
			return 2
		}
		return 1
	}
	fmt.Printf("compared %d metrics, %d regressed\n", c.compared, len(c.regressed))
	if len(c.regressed) > 0 {
		return 1
	}
	return 0
}

// readResults reads full results, one JSON object per line; lines that
// are not a result (such as the contract's summary line) are skipped.
func readResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var r Result
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload != "" {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}
