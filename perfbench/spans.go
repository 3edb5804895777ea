package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer's public functions, recorded by
// the benchmark around the call. Name is "<layer>.<operation>"; spans of
// one serve request share Req.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is a
// valid no-op, so untraced runs pay one nil check per call site.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer starts an empty tracer.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id (-1 on a nil tracer).
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Add records a span whose bounds were measured elsewhere, such as the
// queue and inference intervals a serve response reports.
func (t *Tracer) Add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTime is the time spans of one name spent outside their children.
type SelfTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// SelfTimes folds spans into a per-name table. A span's self time is
// its duration minus the part of it that its children cover; children
// are clipped to the parent's interval and overlapping children count
// once. Open spans are ignored.
func SelfTimes(spans []Span) []SelfTime {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := make(map[string]*SelfTime)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &SelfTime{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += float64(d) / 1e9
		st.Self += float64(d-covered(s.Start, s.End, kids[s.ID])) / 1e9
	}
	out := make([]SelfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// LayerSelf sums self time and span counts by layer, the name's prefix
// before the first dot.
func LayerSelf(table []SelfTime) map[string]SelfTime {
	out := make(map[string]SelfTime)
	for _, st := range table {
		layer, _, _ := strings.Cut(st.Name, ".")
		agg := out[layer]
		agg.Name = layer
		agg.Count += st.Count
		agg.Total += st.Total
		agg.Self += st.Self
		out[layer] = agg
	}
	return out
}

// WriteSpans writes spans as JSON lines followed by nothing else.
func WriteSpans(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// FormatSelfTimes renders the self-time table for a human reader.
func FormatSelfTimes(table []SelfTime) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, st := range table {
		fmt.Fprintf(&b, "%-28s %8d %12.6f %12.6f\n", st.Name, st.Count, st.Total, st.Self)
	}
	return b.String()
}
