package main

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// Arrival is one scheduled request of an open-loop run: it is due Due
// after the run starts, whatever became of the requests before it.
type Arrival struct {
	Due  time.Duration
	Path string
	Body []byte
}

// Outcome is what became of one arrival. Latency is timed from the due
// time, not from the moment the request was fired, so a generator held
// up by a stall charges that wait to every request it delayed.
type Outcome struct {
	Sent     bool // false: skipped at the in-flight cap, a failure
	Status   int
	Fired    time.Time
	Latency  time.Duration // end - due; valid when Sent
	Lateness time.Duration // fired - due (or skip time - due)
	Body     []byte        // response body, kept when keep(i) says so
}

// OpenLoop fires requests at an http.Handler on a fixed schedule, in
// process. It caps requests in flight at MaxInFlight: an arrival that
// finds the cap full waits for a slot, which shows up as lateness, and
// is skipped once it is more than MaxLate overdue.
type OpenLoop struct {
	Handler     http.Handler
	MaxInFlight int
	MaxLate     time.Duration
}

// Run fires every arrival and returns once all sent requests have
// ended. keep(i), when non-nil, selects the responses whose bodies are
// kept. start is the instant Due offsets count from.
func (l OpenLoop) Run(ctx context.Context, arrivals []Arrival, keep func(i int) bool) (out []Outcome, start time.Time) {
	out = make([]Outcome, len(arrivals))
	sem := make(chan struct{}, l.MaxInFlight)
	var wg sync.WaitGroup
	start = time.Now()
	for i := range arrivals {
		if ctx.Err() != nil {
			break // the rest stay unsent
		}
		due := start.Add(arrivals[i].Due)
		waitUntil(due)
		if !l.acquire(ctx, sem, due) {
			out[i].Lateness = time.Since(due)
			continue
		}
		fired := time.Now()
		out[i].Sent = true
		out[i].Fired = fired
		out[i].Lateness = fired.Sub(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			a := &arrivals[i]
			w := newBufferWriter()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.Path, bytes.NewReader(a.Body))
			if err != nil {
				out[i].Latency = time.Since(due) // Status 0: counted as other
				return
			}
			l.Handler.ServeHTTP(w, req)
			out[i].Latency = time.Since(due)
			out[i].Status = w.status
			if out[i].Status == 0 {
				out[i].Status = http.StatusOK // net/http's default
			}
			if keep != nil && keep(i) {
				out[i].Body = w.buf.Bytes()
			}
		}(i, due)
	}
	wg.Wait()
	return out, start
}

// spinAhead is how long before a due time the generator stops
// sleeping and spins. Timer wakeups on small virtual machines run
// milliseconds late, which would show up as generator lateness; the
// spin yields the processor to every runnable goroutine on each turn.
// It has a cost: the spinning processor is never idle, so it does not
// run timers parked on the other one, and the coalescer's MaxWait
// flush fires a few milliseconds late in about one batch in twenty.
// A sleeping generator avoids that, but its wakeups on a shared 2-vCPU
// host spread the serve p99 several times wider from run to run.
const spinAhead = 2 * time.Millisecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinAhead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// acquire takes an in-flight slot, waiting at most until due+MaxLate.
func (l OpenLoop) acquire(ctx context.Context, sem chan struct{}, due time.Time) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(time.Until(due.Add(l.MaxLate)))
	defer t.Stop()
	select {
	case sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// bufferWriter is the smallest http.ResponseWriter that keeps the
// status and body, so no recorder or socket cost lands on the client
// side of the measurement.
type bufferWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func newBufferWriter() *bufferWriter { return &bufferWriter{h: make(http.Header)} }

func (w *bufferWriter) Header() http.Header { return w.h }

func (w *bufferWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *bufferWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}
