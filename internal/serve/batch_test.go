package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/workload"
)

// The coalescer suite: flush policy (size / rows / timer / drain),
// generation consistency across hot-reloads, per-item deadlines inside
// a batch, derived Retry-After, the per-FU accounting identity, and the
// 0-alloc pin on the enqueue→flush→scatter hot path. All run under
// -race by check.sh.

func decodeResponse(t *testing.T, data []byte) predictResponse {
	t.Helper()
	var out predictResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, data)
	}
	return out
}

// TestFlushOnSize: with BatchSize=2 and an effectively-infinite
// MaxWait, two concurrent requests must ride one flush — both served
// from a 2-item batch with flush_reason "size".
func TestFlushOnSize(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.BatchSize = 2
		c.MaxWait = time.Minute
	})
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, data := postPredict(t, ts.URL, validBody(4))
			results <- result{resp.StatusCode, data}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		out := decodeResponse(t, r.body)
		if out.Batch == nil {
			t.Fatal("response carries no batch info")
		}
		if out.Batch.Reason != "size" {
			t.Errorf("flush_reason = %q, want size", out.Batch.Reason)
		}
		if out.Batch.Items != 2 || out.Batch.Rows != 6 {
			t.Errorf("batch items/rows = %d/%d, want 2/6", out.Batch.Items, out.Batch.Rows)
		}
		if out.Batch.FlushedAt.Before(out.Batch.QueuedAt) {
			t.Errorf("flushed_at %v before queued_at %v", out.Batch.FlushedAt, out.Batch.QueuedAt)
		}
		if len(out.Delays) != 3 {
			t.Errorf("got %d delays, want 3", len(out.Delays))
		}
	}
}

// TestFlushOnMaxWait: a lone request under a large BatchSize must not
// wait for riders that never come — the MaxWait timer flushes a partial
// batch of one.
func TestFlushOnMaxWait(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.BatchSize = 64
		c.MaxWait = 20 * time.Millisecond
	})
	start := time.Now()
	resp, data := postPredict(t, ts.URL, validBody(3))
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	out := decodeResponse(t, data)
	if out.Batch == nil || out.Batch.Reason != "timer" {
		t.Fatalf("batch = %+v, want flush_reason timer", out.Batch)
	}
	if out.Batch.Items != 1 {
		t.Errorf("batch items = %d, want 1 (partial flush)", out.Batch.Items)
	}
	if elapsed < 15*time.Millisecond {
		t.Errorf("answered in %v, before the 20ms MaxWait elapsed", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("timer flush took %v", elapsed)
	}
}

// TestFlushOnRows: a single request bigger than MaxBatchRows must form
// its own batch and flush immediately on the row trigger — large
// requests never stall behind the timer nor blow up a shared flush.
func TestFlushOnRows(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.BatchSize = 64
		c.MaxBatchRows = 8
		c.MaxWait = time.Minute
	})
	resp, data := postPredict(t, ts.URL, validBody(10)) // 9 rows ≥ 8
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	out := decodeResponse(t, data)
	if out.Batch == nil || out.Batch.Reason != "rows" {
		t.Fatalf("batch = %+v, want flush_reason rows", out.Batch)
	}
	if out.Batch.Rows != 9 {
		t.Errorf("batch rows = %d, want 9", out.Batch.Rows)
	}
}

// TestDrainFlushesPartialBatch: a request parked in an accumulating
// batch must flush immediately when the drain begins, not wait out a
// long MaxWait under a shutdown deadline.
func TestDrainFlushesPartialBatch(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.BatchSize = 64
		c.MaxWait = time.Minute
	})
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, data := postPredict(t, ts.URL, validBody(3))
		done <- result{resp.StatusCode, data}
	}()
	waitFor(t, func() bool { return s.queueLen.Load() == 1 })
	start := time.Now()
	s.beginDrain()
	select {
	case r := <-done:
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		out := decodeResponse(t, r.body)
		if out.Batch == nil || out.Batch.Reason != "drain" {
			t.Fatalf("batch = %+v, want flush_reason drain", out.Batch)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Errorf("drain flush took %v", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked request not flushed by drain")
	}
}

// TestReloadMidBatchGeneration is the torn-batch race: a hot-reload
// lands while a batch is still accumulating. The flush loads the model
// state exactly once, so every item in the batch — including the one
// admitted BEFORE the reload — must serve from one coherent model and
// report the same (new) generation.
func TestReloadMidBatchGeneration(t *testing.T) {
	dir := t.TempDir()
	m2, err := trainModel(41)
	if err != nil {
		t.Fatal(err)
	}
	path := writeModelFile(t, dir, "v2.tevot", m2)
	s, ts := newTestServer(t, func(c *Config) {
		c.BatchSize = 2
		c.MaxWait = time.Minute
	})
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	post := func() {
		resp, data := postPredict(t, ts.URL, validBody(3))
		results <- result{resp.StatusCode, data}
	}
	go post() // parks in the accumulating batch
	waitFor(t, func() bool { return s.queueLen.Load() == 1 })
	if _, err := s.Reload(path); err != nil {
		t.Fatal(err)
	}
	go post() // second rider completes the batch and triggers the flush
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		out := decodeResponse(t, r.body)
		if out.ModelGeneration != 2 {
			t.Errorf("generation = %d, want 2 (flush must load the post-reload state once)", out.ModelGeneration)
		}
		if out.Batch == nil || out.Batch.Items != 2 {
			t.Errorf("batch = %+v, want 2 items in one flush", out.Batch)
		}
	}
}

// TestBatchQueuedDeadline: an item whose context expires while queued
// is answered with its context error before inference and removed from
// the batch — the surviving rider flushes in a batch of one, and
// serve.batch_expired moves by exactly one.
func TestBatchQueuedDeadline(t *testing.T) {
	s, err := New(Config{
		Model: trainedModel(t), Workers: 1, QueueDepth: 8,
		BatchSize: 2, MaxWait: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.units[0]
	expiredBefore := mBatchExpired.Value()

	pairs := workload.RandomInt(4, 3).Pairs
	expiredCtx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	dead := &batchItem{ctx: expiredCtx, corner: cells.Corner{V: 0.88, T: 50},
		pairs: pairs, rows: len(pairs) - 1, done: make(chan struct{}, 1)}
	live := &batchItem{ctx: context.Background(), corner: cells.Corner{V: 0.88, T: 50},
		pairs: pairs, rows: len(pairs) - 1, done: make(chan struct{}, 1)}

	if !u.admit(dead) || !u.admit(live) {
		t.Fatal("admission refused with an empty queue")
	}
	select {
	case <-dead.done:
	case <-time.After(5 * time.Second):
		t.Fatal("expired item never answered")
	}
	if dead.err != context.DeadlineExceeded {
		t.Errorf("expired item err = %v, want DeadlineExceeded", dead.err)
	}
	select {
	case <-live.done:
	case <-time.After(5 * time.Second):
		t.Fatal("live item never answered")
	}
	if live.err != nil {
		t.Fatalf("live item failed: %v", live.err)
	}
	if live.batchItems != 1 {
		t.Errorf("live item flushed in a %d-item batch, want 1 (expired rider removed)", live.batchItems)
	}
	if len(live.delays) != live.rows {
		t.Errorf("live item got %d delays, want %d", len(live.delays), live.rows)
	}
	if got := mBatchExpired.Value() - expiredBefore; got != 1 {
		t.Errorf("batch_expired moved by %d, want 1", got)
	}
	waitFor(t, func() bool { return s.queueLen.Load() == 0 })
}

// TestRetryAfterDerived pins the Retry-After derivation to the flush
// interval — (backlog/batch + 1) flush cycles, in whole seconds,
// clamped to [1, 60] — and checks a real shed response carries it.
func TestRetryAfterDerived(t *testing.T) {
	cases := []struct {
		maxWait time.Duration
		queued  int64
		batch   int
		want    int
	}{
		{2 * time.Millisecond, 0, 32, 1},    // sub-second clamps up to 1
		{2 * time.Second, 0, 32, 2},         // one flush interval
		{2 * time.Second, 64, 32, 6},        // 2 backlog flushes + 1
		{3 * time.Second, 1, 1, 6},          // batch=1: one flush per item
		{1500 * time.Millisecond, 0, 32, 2}, // rounds up to whole seconds
		{30 * time.Second, 100, 1, 60},      // clamps at 60
		{time.Second, -5, 0, 1},             // degenerate inputs stay sane
	}
	for _, tc := range cases {
		if got := retryAfterSecs(tc.maxWait, tc.queued, tc.batch); got != tc.want {
			t.Errorf("retryAfterSecs(%v, %d, %d) = %d, want %d",
				tc.maxWait, tc.queued, tc.batch, got, tc.want)
		}
	}

	// End to end: one worker gated, one item queued, third request shed.
	// With MaxWait=3s, batch=1, backlog=1 the header must say 6, not a
	// constant.
	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	defer close(gate)
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.BatchSize = 1
		c.MaxWait = 3 * time.Second
		c.inferHook = func(ctx context.Context) error {
			entered <- struct{}{}
			<-gate
			return nil
		}
	})
	bgPost := func() {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(validBody(3)))
		if err == nil {
			readAll(t, resp)
		}
	}
	go bgPost() // occupies the worker
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first request")
	}
	go bgPost() // queued behind it
	waitFor(t, func() bool { return s.queueLen.Load() == 1 })
	resp, data := postPredict(t, ts.URL, validBody(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "6" {
		t.Errorf("Retry-After = %q, want 6 (derived from 3s flush interval, backlog 1)", got)
	}
}

// trainSecondFU trains a small INT_MUL model so multi-unit tests have a
// second functional unit to shard.
var (
	mulOnce  sync.Once
	mulModel *core.Model
	mulErr   error
)

func trainedMulModel(t *testing.T) *core.Model {
	t.Helper()
	mulOnce.Do(func() {
		u, err := core.NewFUnit(circuits.IntMul32)
		if err != nil {
			mulErr = err
			return
		}
		tr, err := core.CharacterizeOptsContext(context.Background(), u, cells.Corner{V: 0.88, T: 50}, workload.RandomInt(201, 11), nil, core.CharacterizeOptions{})
		if err != nil {
			mulErr = err
			return
		}
		mulModel, mulErr = core.Train(circuits.IntMul32, []*core.Trace{tr}, core.DefaultConfig())
	})
	if mulErr != nil {
		t.Fatal(mulErr)
	}
	return mulModel
}

// TestPerFURouting: a two-unit server routes /v1/predict/{fu} to the
// right shard, keeps the legacy /v1/predict on the default unit, and
// 404s unknown FUs with the aggregate-only accounting.
func TestPerFURouting(t *testing.T) {
	s, err := New(Config{
		Models: []ModelEntry{
			{Model: trainedModel(t)},
			{Model: trainedMulModel(t)},
		},
		Workers: 2, QueueDepth: 8, BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := newHTTPServer(t, s)

	unknownBefore := mUnknownFU.Value()
	for _, tc := range []struct {
		path, wantFU string
	}{
		{"/v1/predict", "INT_ADD"},
		{"/v1/predict/INT_ADD", "INT_ADD"},
		{"/v1/predict/INT_MUL", "INT_MUL"},
		// FU names are canonically uppercase but model files are saved
		// lowercase (int_add.tevot), so the route accepts any casing.
		{"/v1/predict/int_add", "INT_ADD"},
		{"/v1/predict/int_mul", "INT_MUL"},
	} {
		resp, err := http.Post(ts+tc.path, "application/json", strings.NewReader(validBody(4)))
		if err != nil {
			t.Fatal(err)
		}
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, resp.StatusCode, data)
		}
		if out := decodeResponse(t, data); out.FU != tc.wantFU {
			t.Errorf("%s served fu %q, want %q", tc.path, out.FU, tc.wantFU)
		}
	}
	resp, err := http.Post(ts+"/v1/predict/FP_DIV", "application/json", strings.NewReader(validBody(4)))
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown FU: status %d, want 404: %s", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Error.Code != "unknown_fu" {
		t.Errorf("code %q, want unknown_fu", e.Error.Code)
	}
	if got := mUnknownFU.Value() - unknownBefore; got != 1 {
		t.Errorf("unknown_fu moved by %d, want 1", got)
	}
	if gen := s.GenerationFU("INT_MUL"); gen != 1 {
		t.Errorf("INT_MUL generation = %d, want 1", gen)
	}
}

// TestPerFUReload: reloading one unit bumps only that unit's
// generation; the sibling keeps serving its model untouched.
func TestPerFUReload(t *testing.T) {
	dir := t.TempDir()
	m2, err := trainModel(53)
	if err != nil {
		t.Fatal(err)
	}
	path := writeModelFile(t, dir, "add-v2.tevot", m2)
	s, err := New(Config{
		Models: []ModelEntry{
			{Model: trainedModel(t)},
			{Model: trainedMulModel(t)},
		},
		Workers: 2, QueueDepth: 8, BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := newHTTPServer(t, s)

	resp, err := http.Post(ts+"/admin/reload", "application/json",
		strings.NewReader(`{"fu":"INT_ADD","path":`+jq(path)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, data)
	}
	if got := s.GenerationFU("INT_ADD"); got != 2 {
		t.Errorf("INT_ADD generation = %d, want 2", got)
	}
	if got := s.GenerationFU("INT_MUL"); got != 1 {
		t.Errorf("INT_MUL generation = %d, want 1 (must not move)", got)
	}
	// A wrong-unit reload (INT_ADD gob into the INT_MUL shard) is
	// rejected by the FU gate and moves nothing.
	resp, err = http.Post(ts+"/admin/reload", "application/json",
		strings.NewReader(`{"fu":"INT_MUL","path":`+jq(path)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	data = readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("cross-FU reload status %d, want 422: %s", resp.StatusCode, data)
	}
	if got := s.GenerationFU("INT_MUL"); got != 1 {
		t.Errorf("INT_MUL generation = %d after rejected reload, want 1", got)
	}
}

// TestAccountingIdentityPerFU drives mixed traffic — served, bad, shed,
// unknown-FU — at a two-unit server and asserts the accounting identity
//
//	requests == served + shed + timeouts + canceled + bad + internal
//
// on each unit's counter set AND the aggregate, as counter deltas.
func TestAccountingIdentityPerFU(t *testing.T) {
	s, err := New(Config{
		Models: []ModelEntry{
			{Model: trainedModel(t)},
			{Model: trainedMulModel(t)},
		},
		Workers: 2, QueueDepth: 8, BatchSize: 4, MaxWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := newHTTPServer(t, s)

	snap := func(set outcomeSet) [7]int64 {
		return [7]int64{set.requests.Value(), set.served.Value(), set.shed.Value(),
			set.timeouts.Value(), set.canceled.Value(), set.bad.Value(), set.internal.Value()}
	}
	before := map[string][7]int64{
		"aggregate": snap(aggregate),
		"INT_ADD":   snap(s.byFU["INT_ADD"].met),
		"INT_MUL":   snap(s.byFU["INT_MUL"].met),
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			paths := []string{"/v1/predict", "/v1/predict/INT_MUL", "/v1/predict/INT_ADD", "/v1/predict/NOPE"}
			for i := 0; i < 25; i++ {
				body := validBody(3)
				if i%7 == 0 {
					body = `{"voltage":0}` // invalid: counted bad
				}
				resp, err := http.Post(ts+paths[(g+i)%len(paths)], "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				readAll(t, resp)
			}
		}(g)
	}
	wg.Wait()

	for name, b := range before {
		var a [7]int64
		switch name {
		case "aggregate":
			a = snap(aggregate)
		default:
			a = snap(s.byFU[name].met)
		}
		var d [7]int64
		for i := range a {
			d[i] = a[i] - b[i]
		}
		if sum := d[1] + d[2] + d[3] + d[4] + d[5] + d[6]; d[0] != sum {
			t.Errorf("%s identity broken: requests=%d != served=%d+shed=%d+timeouts=%d+canceled=%d+bad=%d+internal=%d",
				name, d[0], d[1], d[2], d[3], d[4], d[5], d[6])
		}
		if name != "aggregate" && d[0] == 0 {
			t.Errorf("%s saw no traffic; the identity check is vacuous", name)
		}
	}
}

// TestServeBatchHotPathAllocs pins the coalescer hot path —
// enqueue → accumulate → flush → scatter — at zero allocations per
// item in steady state: recycled batch structs, reusable worker
// buffers, and delay slices reused in place.
func TestServeBatchHotPathAllocs(t *testing.T) {
	const items = 8
	s, err := New(Config{
		Model: trainedModel(t), Workers: 1, QueueDepth: 32,
		BatchSize: items, MaxWait: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.units[0]

	pairs := workload.RandomInt(4, 9).Pairs
	its := make([]*batchItem, items)
	for i := range its {
		its[i] = &batchItem{
			ctx:    context.Background(),
			corner: cells.Corner{V: 0.88, T: 50},
			pairs:  pairs,
			rows:   len(pairs) - 1,
			done:   make(chan struct{}, 1),
		}
	}
	run := func() {
		for _, it := range its {
			if !u.admit(it) {
				t.Fatal("admission refused")
			}
		}
		for _, it := range its {
			<-it.done
			if it.err != nil {
				t.Fatal(it.err)
			}
		}
	}
	allocs := testing.AllocsPerRun(200, run)
	if perItem := allocs / items; perItem != 0 {
		t.Errorf("coalescer hot path allocates %.3f allocs/op per item (%.1f per %d-item batch), want 0",
			perItem, allocs, items)
	}
}

// newHTTPServer is newTestServer for Servers constructed directly (the
// multi-unit configs newTestServer's single-Model default can't build).
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
