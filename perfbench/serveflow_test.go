package main

import (
	"fmt"
	"testing"
)

// lateWindows counts the windows whose generator lateness p99 passed
// windowLateMs; a rung shorter than one window is judged as one.
func TestLateWindowsShare(t *testing.T) {
	late := make([]float64, 4*lateWindow)
	for i := 0; i < lateWindow; i++ { // window 0: a host stall
		late[i] = 10
	}
	for i := 2 * lateWindow; i < 2*lateWindow+5; i++ { // window 2: below the 99th percentile
		late[i] = 10
	}
	if got := lateWindows(late); got != 0.25 {
		t.Errorf("lateWindows = %v, want 0.25", got)
	}
	if got := lateWindows(late[:lateWindow/2]); got != 1 {
		t.Errorf("short stalled rung: lateWindows = %v, want 1", got)
	}
	if got := lateWindows(late[lateWindow : lateWindow+lateWindow/2]); got != 0 {
		t.Errorf("short on-time rung: lateWindows = %v, want 0", got)
	}
}

// windowQuantile passes over a stall that lands in one window, moves
// with a delay that recurs in every window, and keeps every arrival.
func TestWindowQuantile(t *testing.T) {
	lat := make([]float64, 8*quantileWindow)
	for i := range lat {
		lat[i] = 2
	}
	for i := 0; i < 10; i++ { // one stall, in window 0
		lat[i] = 50
	}
	if got := windowQuantile(lat, 0.99); got != 2 {
		t.Errorf("one stalled window: p99 = %v, want 2", got)
	}
	if got := quantile(lat, 0.99); got != 2 {
		t.Errorf("pooled p99 = %v, want 2 (10 of 2000 arrivals)", got)
	}
	for w := 0; w < 8; w++ { // 5 slow arrivals in every window
		for i := 0; i < 5; i++ {
			lat[w*quantileWindow+i*40] = 9
		}
	}
	if got := windowQuantile(lat, 0.99); got < 9 {
		t.Errorf("delay in every window: p99 = %v, want at least 9", got)
	}
	short := []float64{1, 2, 3}
	if got := windowQuantile(short, 0.5); got != 2 {
		t.Errorf("rung shorter than a window: p50 = %v, want 2", got)
	}
}

// quiet keeps the units measured with at most the median steal share;
// ties keep more than half, and each figure follows its own unit.
func TestQuietUnits(t *testing.T) {
	steals := []float64{0.30, 0, 0.01, 0.25, 0}
	if got := fmt.Sprint(quiet(steals)); got != "[1 2 4]" {
		t.Errorf("quiet = %s, want [1 2 4]", got)
	}
	rates := []float64{50, 100, 98, 60, 102}
	if got := quietMedian(rates, steals); got != 100 {
		t.Errorf("quietMedian = %v, want 100", got)
	}
	segs := [][]float64{{1, 2}, {3}, {4, 5}}
	if got := fmt.Sprint(concat(segs, []int{0, 2})); got != "[1 2 4 5]" {
		t.Errorf("concat = %s", got)
	}
	if got := fmt.Sprint(concat(segs, nil)); got != "[1 2 3 4 5]" {
		t.Errorf("concat all = %s", got)
	}
}
