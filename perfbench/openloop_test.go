package main

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"
)

func evenArrivals(n int, every time.Duration) []Arrival {
	arr := make([]Arrival, n)
	for i := range arr {
		arr[i] = Arrival{Due: time.Duration(i) * every, Path: "/x"}
	}
	return arr
}

// A handler with a fixed delay: every measured latency is at least the
// delay, because latency is timed from the due time.
func TestOpenLoopLatencyAtLeastHandlerDelay(t *testing.T) {
	const delay = 3 * time.Millisecond
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.Write([]byte("ok"))
	})
	l := OpenLoop{Handler: h, MaxInFlight: 64, MaxLate: time.Second}
	out, _ := l.Run(context.Background(), evenArrivals(50, time.Millisecond), func(int) bool { return true })
	for i, o := range out {
		if !o.Sent || o.Status != http.StatusOK {
			t.Fatalf("arrival %d: sent %v status %d", i, o.Sent, o.Status)
		}
		if o.Latency < delay {
			t.Errorf("arrival %d: latency %v below the handler's %v delay", i, o.Latency, delay)
		}
		if string(o.Body) != "ok" {
			t.Errorf("arrival %d: body %q", i, o.Body)
		}
	}
}

// A stalled handler holding the only in-flight slot shows up as
// generator lateness, and the wait is charged to the delayed requests'
// latency.
func TestOpenLoopStallShowsAsLateness(t *testing.T) {
	const stall = 60 * time.Millisecond
	var once sync.Once
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	})
	l := OpenLoop{Handler: h, MaxInFlight: 1, MaxLate: time.Second}
	out, _ := l.Run(context.Background(), evenArrivals(20, 2*time.Millisecond), nil)
	var maxLate time.Duration
	for i, o := range out {
		if !o.Sent {
			t.Fatalf("arrival %d skipped; MaxLate should have let it wait", i)
		}
		if o.Latency < o.Lateness {
			t.Errorf("arrival %d: latency %v below its lateness %v", i, o.Latency, o.Lateness)
		}
		maxLate = max(maxLate, o.Lateness)
	}
	if maxLate < stall/2 {
		t.Errorf("max lateness %v; a %v stall at the cap should show", maxLate, stall)
	}
}

// Arrivals that cannot get a slot within MaxLate are skipped, not sent,
// and the loop still returns once the stalled request ends.
func TestOpenLoopSkipsPastMaxLate(t *testing.T) {
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-release })
	l := OpenLoop{Handler: h, MaxInFlight: 1, MaxLate: 5 * time.Millisecond}
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	out, _ := l.Run(context.Background(), evenArrivals(10, time.Millisecond), nil)
	skipped := 0
	for _, o := range out {
		if !o.Sent {
			skipped++
		}
	}
	if !out[0].Sent || skipped == 0 {
		t.Fatalf("first sent %v, %d skipped; want the first sent and later ones skipped", out[0].Sent, skipped)
	}
}
