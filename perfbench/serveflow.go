package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"time"

	"tevot/internal/cells"
	"tevot/internal/core"
	"tevot/internal/obs"
	"tevot/internal/serve"
	"tevot/internal/workload"
)

// servedModel is one functional unit's model behind /v1/predict/{fu},
// with the corners, clocks and operand pool requests are drawn from.
// Requests are split evenly between the served models.
type servedModel struct {
	fu      string
	model   *core.Model
	corners []cells.Corner
	clocks  map[cells.Corner][]float64
	pool    []workload.OperandPair
}

// ladder is a fixed sequence of offered Poisson rates. Rungs low and
// high are reported by name; the sustained rate is the highest rung
// whose p99 meets p99Limit with at most 1 % of requests failed and the
// generator keeping up. The ladder runs in rounds, interleaved with the
// other stages; each round runs every rung once.
type ladder struct {
	rates     []float64
	low, high int
}

// roundDur is how long one round of a ladder runs.
const roundDur = 2 * time.Second

// rungDur is each rung's equal share of a round.
func (ld ladder) rungDur() time.Duration {
	return roundDur / time.Duration(len(ld.rates))
}

const (
	// p99Limit is the latency limit of serve_sustained_rps.
	p99Limit = 20 * time.Millisecond
	// maxInFlight caps the generator's requests in flight at the
	// server's default admission queue depth (serve.Config.QueueDepth,
	// 64 per unit). The queue then never holds more than it admits, so
	// the burst of overdue arrivals the generator fires when the host
	// resumes it after a stall waits for slots, and shows as latency,
	// rather than being shed.
	maxInFlight = 64
	// maxLate is how overdue an arrival may get waiting for an
	// in-flight slot before it is skipped and counted as failed: far
	// past every limit, so a host stall is charged to latency and only
	// a server that stops answering fails requests.
	maxLate = time.Second
	// verifyPerSegment is how many responses an untraced run verifies
	// each time a rung runs; traced runs verify every one.
	verifyPerSegment = 40
)

// served is a request as generated, kept to verify its response.
type served struct {
	model  int
	corner cells.Corner
	pairs  []workload.OperandPair
}

type wirePair struct {
	A uint32 `json:"a"`
	B uint32 `json:"b"`
}

type wireRequest struct {
	Voltage     float64    `json:"voltage"`
	Temperature float64    `json:"temperature"`
	Pairs       []wirePair `json:"pairs"`
	Clocks      []float64  `json:"clocks,omitempty"`
}

type wireResponse struct {
	Delays []float64 `json:"delays"`
	Batch  *struct {
		QueuedAt    time.Time `json:"queued_at"`
		FlushedAt   time.Time `json:"flushed_at"`
		QueueUS     int64     `json:"queue_us"`
		InferenceUS int64     `json:"inference_us"`
		Items       int       `json:"items"`
		Rows        int       `json:"rows"`
		Reason      string    `json:"flush_reason"`
	} `json:"batch"`
}

// requestPairs draws a request size: 2-4 pairs, averaging the 3 pairs
// internal/loadgen sends, and one request in eight from a log-uniform
// tail of 5 to 64 pairs. The tail's share is the benchmark's
// assumption, not a measured traffic mix.
func requestPairs(r *rand.Rand) int {
	if r.Intn(8) != 0 {
		return 2 + r.Intn(3)
	}
	return int(math.Round(math.Exp(math.Log(5) + r.Float64()*(math.Log(64)-math.Log(5)))))
}

// genRung draws one rung's Poisson arrivals at rate rps for dur.
func genRung(r *rand.Rand, models []servedModel, rps float64, dur time.Duration) ([]Arrival, []served, error) {
	var arr []Arrival
	var reqs []served
	for t := time.Duration(r.ExpFloat64() / rps * 1e9); t < dur; t += time.Duration(r.ExpFloat64() / rps * 1e9) {
		mi := r.Intn(len(models))
		m := &models[mi]
		c := m.corners[r.Intn(len(m.corners))]
		n := requestPairs(r)
		off := r.Intn(len(m.pool) - n)
		pairs := m.pool[off : off+n]
		req := wireRequest{Voltage: c.V, Temperature: c.T, Pairs: make([]wirePair, n)}
		for i, p := range pairs {
			req.Pairs[i] = wirePair{p.A, p.B}
		}
		cl := m.clocks[c]
		req.Clocks = cl[:1+r.Intn(len(cl))]
		body, err := json.Marshal(req)
		if err != nil {
			return nil, nil, err
		}
		arr = append(arr, Arrival{Due: t, Path: "/v1/predict/" + strings.ToLower(m.fu), Body: body})
		reqs = append(reqs, served{model: mi, corner: c, pairs: pairs})
	}
	return arr, reqs, nil
}

const warmupDur = 300 * time.Millisecond

// failedLatencyMs is the latency a shed, failed or skipped request
// counts as: the server's default request deadline, past any limit.
const failedLatencyMs = 5000

// rungStats summarises one rung over every round.
type rungStats struct {
	rate                     float64
	attempted, sent, skipped int
	ok, shed, timeout, other int
	p50, p95, p99            float64 // ms from due, windowed over the quiet segments; failures count as failedLatencyMs
	p99All                   float64 // ms from due, over every arrival at once
	lateP99                  float64 // ms, windowed over the quiet segments
	invalid                  float64 // share of windows the generator fell behind in
	achieved                 float64 // 200 responses per second
	pass                     bool
}

// rungAcc pools one rung's outcomes over the rounds run so far.
type rungAcc struct {
	rungStats
	// One entry per time the rung ran: its arrivals' latencies and
	// lateness (ms, in order), and the host's steal share meanwhile.
	segLat, segLate      [][]float64
	segSteal             []float64
	dur                  time.Duration
	verified, mismatched int
	unbalanced           string // the first segment whose accounting did not balance
}

// serveStats accumulates the per-layer view of every decoded response.
type serveStats struct {
	queueUS, inferUS, handlerUS []float64
	items, rows                 []float64
	reasons                     map[string]int
	lateness                    []float64 // ms, every arrival
	invalid                     []float64 // per rung, share of windows the generator fell behind in
	sent, shed                  int
}

// serveRig is a workload's serve stage: models served in process
// through serve.Server.Handler, the open-loop generator driving it, and
// what each rung has gathered so far.
type serveRig struct {
	e      *runEnv
	models []servedModel
	ld     ladder
	srv    *serve.Server
	loop   OpenLoop
	rungs  []rungAcc
	ss     serveStats
	rounds int
}

// newServeRig starts the server and warms it and the generator at the
// lowest rate for warmupDur, unmeasured.
func (e *runEnv) newServeRig(models []servedModel, ld ladder) (*serveRig, error) {
	entries := make([]serve.ModelEntry, len(models))
	for i, m := range models {
		entries[i] = serve.ModelEntry{Model: m.model}
	}
	srv, err := serve.New(serve.Config{Models: entries})
	if err != nil {
		return nil, err
	}
	g := &serveRig{e: e, models: models, ld: ld, srv: srv,
		loop:  OpenLoop{Handler: srv.Handler(), MaxInFlight: maxInFlight, MaxLate: maxLate},
		rungs: make([]rungAcc, len(ld.rates)), ss: serveStats{reasons: make(map[string]int)}}
	warm, _, err := genRung(e.rng("serve.warmup"), models, ld.rates[0], warmupDur)
	if err != nil {
		srv.Close()
		return nil, err
	}
	g.loop.Run(e.ctx, warm, nil)
	return g, nil
}

// round runs every rung once for its share of roundDur, starting from
// a collected heap, and pools the outcomes.
func (g *serveRig) round() error {
	e := g.e
	runtime.GC()
	for ri, rate := range g.ld.rates {
		dur := g.ld.rungDur()
		arr, reqs, err := genRung(e.rng(fmt.Sprintf("serve.round.%d.rung.%d", g.rounds, ri)), g.models, rate, dur)
		if err != nil {
			return err
		}
		every := max(1, len(arr)/verifyPerSegment)
		keep := func(i int) bool { return e.tr != nil || i%every == 0 }
		before := readServerCounts()
		rid := e.tr.Begin("driver.rung", -1)
		sm := startSteal()
		outs, start := g.loop.Run(e.ctx, arr, keep)
		steal := e.steal(sm)
		e.tr.End(rid)
		if err := g.segment(&g.rungs[ri], arr, reqs, outs, start, rid, readServerCounts().minus(before), steal); err != nil {
			return err
		}
		g.rungs[ri].dur += dur
	}
	g.rounds++
	return nil
}

// segment adds one run of a rung to its pool: it verifies every kept
// response against Model.PredictDelays, checks the run's accounting
// against the server's counters d, and (traced) rebuilds each request's
// spans.
func (g *serveRig) segment(acc *rungAcc, arr []Arrival, reqs []served, outs []Outcome, start time.Time, rung int, d serverCounts, steal float64) error {
	e, ss := g.e, &g.ss
	var st rungStats
	lats := make([]float64, 0, len(outs))
	lates := make([]float64, 0, len(outs))
	for i, o := range outs {
		lat := float64(failedLatencyMs)
		lates = append(lates, float64(o.Lateness)/1e6)
		st.attempted++
		if !o.Sent {
			st.skipped++
			lats = append(lats, lat)
			continue
		}
		st.sent++
		switch o.Status {
		case http.StatusOK:
			st.ok++
			lat = float64(o.Latency) / 1e6
		case http.StatusTooManyRequests:
			st.shed++
		case http.StatusServiceUnavailable:
			st.timeout++
		default:
			st.other++
		}
		lats = append(lats, lat)
		if o.Body == nil || o.Status != http.StatusOK {
			continue
		}
		var resp wireResponse
		if err := json.Unmarshal(o.Body, &resp); err != nil {
			acc.verified++
			acc.mismatched++
			continue
		}
		q := reqs[i]
		want, err := g.models[q.model].model.PredictDelays(q.corner, &workload.Stream{Pairs: q.pairs})
		if err != nil {
			return err
		}
		acc.verified++
		if !equalDelays(resp.Delays, want) {
			acc.mismatched++
		}
		if b := resp.Batch; b != nil {
			ss.queueUS = append(ss.queueUS, float64(b.QueueUS))
			ss.inferUS = append(ss.inferUS, float64(b.InferenceUS))
			service := float64(o.Latency-o.Lateness) / 1e3
			ss.handlerUS = append(ss.handlerUS, service-float64(b.QueueUS)-float64(b.InferenceUS))
			ss.items = append(ss.items, float64(b.Items))
			ss.rows = append(ss.rows, float64(b.Rows))
			ss.reasons[b.Reason]++
			if e.tr != nil {
				end := start.Add(arr[i].Due + o.Latency)
				req := int64(len(ss.lateness) + i + 1) // unique across segments
				root := e.tr.Add("serve.request", rung, req, o.Fired, end)
				e.tr.Add("serve.queue", root, req, b.QueuedAt, b.FlushedAt)
				e.tr.Add("serve.inference", root, req, b.FlushedAt, b.FlushedAt.Add(time.Duration(b.InferenceUS)*time.Microsecond))
			}
		}
	}
	acc.segLat = append(acc.segLat, lats)
	acc.segLate = append(acc.segLate, lates)
	acc.segSteal = append(acc.segSteal, steal)
	ss.lateness = append(ss.lateness, lates...)
	if !balanced(st, d) && acc.unbalanced == "" {
		acc.unbalanced = fmt.Sprintf("round %d: client: attempted %d = sent %d + skipped %d, sent = 200 %d + 429 %d + 503 %d + other %d; server: requests %d = served %d + shed %d + timeouts %d + canceled %d + bad %d + internal %d",
			g.rounds, st.attempted, st.sent, st.skipped, st.ok, st.shed, st.timeout, st.other,
			d.requests, d.served, d.shed, d.timeouts, d.canceled, d.bad, d.internal)
	}
	acc.attempted += st.attempted
	acc.sent += st.sent
	acc.skipped += st.skipped
	acc.ok += st.ok
	acc.shed += st.shed
	acc.timeout += st.timeout
	acc.other += st.other
	ss.sent += st.sent
	ss.shed += st.shed
	e.attempted += st.attempted
	e.failed += st.attempted - st.ok
	return nil
}

// finish closes the server, checks each rung's responses and
// accounting, and reports the serve_*, serve.* and driver.* metrics.
func (g *serveRig) finish() {
	g.srv.Close()
	e := g.e
	var rungs []rungStats
	limit := float64(p99Limit) / 1e6
	for ri := range g.rungs {
		acc := &g.rungs[ri]
		st := acc.rungStats
		st.rate = g.ld.rates[ri]
		q := quiet(acc.segSteal)
		lat := concat(acc.segLat, q)
		st.p50 = windowQuantile(lat, 0.5)
		st.p95 = windowQuantile(lat, 0.95)
		st.p99 = windowQuantile(lat, 0.99)
		st.lateP99 = windowQuantile(concat(acc.segLate, q), 0.99)
		st.p99All = quantile(concat(acc.segLat, nil), 0.99)
		st.invalid = lateWindows(concat(acc.segLate, nil))
		st.achieved = float64(st.ok) / acc.dur.Seconds()
		st.pass = st.p99 <= limit && float64(st.attempted-st.ok) <= 0.01*float64(st.attempted) && st.lateP99 <= limit
		g.ss.invalid = append(g.ss.invalid, st.invalid)
		e.check(fmt.Sprintf("serve.delays.%.0frps", st.rate), acc.mismatched == 0 && acc.verified > 0,
			"%d of %d verified responses differ from Model.PredictDelays", acc.mismatched, acc.verified)
		e.check(fmt.Sprintf("serve.accounting.%.0frps", st.rate), acc.unbalanced == "", "%s", acc.unbalanced)
		rungs = append(rungs, st)
	}
	e.reportLadder(g.ld, rungs)
	e.reportServeLayers(&g.ss)
	var b strings.Builder
	fmt.Fprintf(&b, "  serve: %d rounds of %v\n", g.rounds, roundDur)
	for _, r := range rungs {
		fmt.Fprintf(&b, "  rung %6.0f/s: sent %d ok %d 429 %d 503 %d other %d skipped %d p50 %.3fms p95 %.3fms p99 %.3fms (all arrivals %.3fms) late.p99 %.3fms invalid %.2f achieved %.0f/s pass %v\n",
			r.rate, r.sent, r.ok, r.shed, r.timeout, r.other, r.skipped, r.p50, r.p95, r.p99, r.p99All, r.lateP99, r.invalid, r.achieved, r.pass)
	}
	e.notes = append(e.notes, b.String())
}

// quantileWindow is the number of consecutive arrivals of a rung each
// windowed quantile is taken over. The reported tail is the p95: the
// highest quantile with at least ten of a window's arrivals beyond it.
const quantileWindow = 250

// windowQuantile splits a rung's arrivals, in order, into consecutive
// windows of about quantileWindow (all of them; a rung shorter than one
// window is one window) and returns the median over the windows of each
// window's q-quantile. Every arrival is in a window and no window is
// left out. On a shared host a stall of a few milliseconds lands in a
// window now and then and sets that window's p99; the median passes
// over it, while a delay that recurs in most windows (a slower path, a
// pause every few hundred requests) moves it. The p99 over all of a
// rung's arrivals at once, which such stalls set, is reported as the
// per-layer serve.p99_all_ms.
func windowQuantile(xs []float64, q float64) float64 {
	n := max(1, len(xs)/quantileWindow)
	per := make([]float64, n)
	for k := range per {
		per[k] = quantile(xs[k*len(xs)/n:(k+1)*len(xs)/n], q)
	}
	return median(per)
}

// concat joins the segments idx names, in order, or all of them when
// idx is nil.
func concat(segs [][]float64, idx []int) []float64 {
	var out []float64
	if idx == nil {
		for _, s := range segs {
			out = append(out, s...)
		}
		return out
	}
	for _, i := range idx {
		out = append(out, segs[i]...)
	}
	return out
}

// lateWindow is the number of consecutive arrivals lateWindows judges
// the generator over.
const lateWindow = 1000

// windowLateMs is the generator lateness p99 (ms) beyond which a window
// is late: the generator fell behind its schedule there, which on a
// small shared machine means the host stalled the process.
const windowLateMs = 2.0

// lateWindows is the share of consecutive lateWindow-arrival windows
// whose generator lateness p99 passes windowLateMs (a rung shorter than
// one window is one window). The rung's latencies keep every arrival;
// this share only marks a run in which the generator could not deliver
// its schedule, and compare sets such runs apart.
func lateWindows(late []float64) float64 {
	if len(late) < lateWindow {
		if quantile(late, 0.99) > windowLateMs {
			return 1
		}
		return 0
	}
	n, bad := 0, 0
	for lo := 0; lo+lateWindow <= len(late); lo += lateWindow {
		n++
		if quantile(late[lo:lo+lateWindow], 0.99) > windowLateMs {
			bad++
		}
	}
	return float64(bad) / float64(n)
}

// serverCounts are the serve package's aggregate outcome counters.
type serverCounts struct{ requests, served, shed, timeouts, canceled, bad, internal int64 }

func readServerCounts() serverCounts {
	c := func(name string) int64 { return obs.NewCounter("serve." + name).Value() }
	return serverCounts{c("requests"), c("served"), c("shed"), c("timeouts"), c("canceled"), c("bad_requests"), c("internal_errors")}
}

func (a serverCounts) minus(b serverCounts) serverCounts {
	return serverCounts{a.requests - b.requests, a.served - b.served, a.shed - b.shed, a.timeouts - b.timeouts,
		a.canceled - b.canceled, a.bad - b.bad, a.internal - b.internal}
}

// balanced says whether a rung's outcomes balance as the client saw
// them (sent = 200 + 429 + 503 + other, attempted = sent + skipped),
// whether the server counted the same requests, answers and sheds, and
// whether the server's own identity holds.
func balanced(st rungStats, d serverCounts) bool {
	return st.sent == st.ok+st.shed+st.timeout+st.other && st.attempted == st.sent+st.skipped &&
		int64(st.sent) == d.requests && int64(st.ok) == d.served && int64(st.shed) == d.shed &&
		d.requests == d.served+d.shed+d.timeouts+d.canceled+d.bad+d.internal
}

func equalDelays(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reportLadder sets the serve_* end-to-end metrics from the rungs.
func (e *runEnv) reportLadder(ld ladder, rungs []rungStats) {
	lo, hi := rungs[ld.low], rungs[ld.high]
	e.set("serve_p50_ms.low", "ms", lo.p50)
	e.set("serve_p95_ms.low", "ms", lo.p95)
	e.set("serve_p50_ms.high", "ms", hi.p50)
	e.set("serve_p95_ms.high", "ms", hi.p95)
	e.set("serve.p99_ms.low", "ms", lo.p99)
	e.set("serve.p99_ms.high", "ms", hi.p99)
	e.set("serve.p99_all_ms.low", "ms", lo.p99All)
	e.set("serve.p99_all_ms.high", "ms", hi.p99All)
	sustained := 0.0
	for _, r := range rungs {
		if r.pass {
			sustained = r.achieved
		} else {
			break
		}
	}
	e.set("serve_sustained_rps", "1/s", sustained)
}

// reportServeLayers sets the serve.* and driver.* per-layer metrics.
func (e *runEnv) reportServeLayers(ss *serveStats) {
	e.set("serve.queue_us.p50", "us", quantile(ss.queueUS, 0.5))
	e.set("serve.queue_us.p99", "us", quantile(ss.queueUS, 0.99))
	e.set("serve.inference_us.p50", "us", quantile(ss.inferUS, 0.5))
	e.set("serve.inference_us.p99", "us", quantile(ss.inferUS, 0.99))
	e.set("serve.handler_us.p50", "us", quantile(ss.handlerUS, 0.5))
	e.set("serve.batch_items", "count", mean(ss.items))
	e.set("serve.batch_rows", "count", mean(ss.rows))
	n := 0
	for _, c := range ss.reasons {
		n += c
	}
	for _, r := range [][2]string{{"size", "size"}, {"rows", "rows"}, {"max_wait", "timer"}} {
		e.set("serve.flush_reason."+r[0], "ratio", float64(ss.reasons[r[1]])/float64(max(n, 1)))
	}
	e.set("serve.shed_ratio", "ratio", float64(ss.shed)/float64(max(ss.sent, 1)))
	e.set("driver.lateness_ms.p99", "ms", quantile(ss.lateness, 0.99))
	e.set("driver.invalid_window_frac", "ratio", mean(ss.invalid))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
