package main

import (
	"math"
	"testing"
)

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "serve.request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "serve.queue", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "serve.inference", Start: 30, End: 60},  // overlaps queue
		{ID: 3, Parent: 0, Name: "serve.inference", Start: 90, End: 130}, // runs past the parent
		{ID: 4, Parent: -1, Name: "core.train", Start: 0, End: -1},       // open: ignored
	}
	got := map[string]SelfTime{}
	for _, st := range SelfTimes(spans) {
		got[st.Name] = st
	}
	// The parent is covered over [10,60) and [90,100): 60 of 100 ns.
	if s := got["serve.request"].Self; math.Abs(s-40e-9) > 1e-15 {
		t.Errorf("request self %v s, want 40ns", s)
	}
	if st := got["serve.inference"]; st.Count != 2 || math.Abs(st.Self-70e-9) > 1e-15 {
		t.Errorf("inference %+v, want 2 spans, 70ns self", st)
	}
	if _, ok := got["core.train"]; ok {
		t.Error("open span counted")
	}
	layers := LayerSelf(SelfTimes(spans))
	if l := layers["serve"]; l.Count != 4 || math.Abs(l.Self-(40e-9+30e-9+70e-9)) > 1e-15 {
		t.Errorf("serve layer %+v", l)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x.y", -1)
	tr.End(id)
	if id != -1 || tr.Spans() != nil {
		t.Fatalf("nil tracer recorded: id %d spans %v", id, tr.Spans())
	}
}
