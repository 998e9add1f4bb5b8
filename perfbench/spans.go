package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for
// a root). Start and End are nanoseconds since the recorder's epoch.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A disabled
// recorder hands out zero spans and records nothing, so the same call
// sites run with tracing on and off.
type Recorder struct {
	on    bool
	epoch time.Time

	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder; on=false makes every call a no-op.
func NewRecorder(on bool) *Recorder {
	return &Recorder{on: on, epoch: time.Now()}
}

// Open is a span that has started but not ended.
type Open struct {
	id, parent, req int64
	name            string
	start           int64
}

// ID is the open span's identifier, for use as a child's parent.
func (o Open) ID() int64 { return o.id }

// Now is the recorder clock.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// NewID reserves a span ID, for a span recorded once it has ended but
// parenting spans recorded before that (0 when disabled).
func (r *Recorder) NewID() int64 {
	if !r.on {
		return 0
	}
	return r.next.Add(1)
}

// Begin starts a span.
func (r *Recorder) Begin(name string, parent, req int64) Open {
	if !r.on {
		return Open{}
	}
	return Open{id: r.NewID(), parent: parent, req: req, name: name, start: r.Now()}
}

// End finishes a span begun by Begin.
func (r *Recorder) End(o Open) {
	if o.id != 0 {
		r.Add(Span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start, End: r.Now()})
	}
}

// Record stores a span measured elsewhere, on the recorder clock.
func (r *Recorder) Record(name string, parent, req, start, end int64) {
	r.Add(Span{ID: r.NewID(), Parent: parent, Req: req, Name: name, Start: start, End: end})
}

// Add stores a finished span.
func (r *Recorder) Add(s Span) {
	if !r.on {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as gzip-compressed NDJSON, one span per
// line.
func (r *Recorder) WriteFile(path string) error {
	return writeGzip(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range r.Spans() {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// LayerTime sums, per span name, the spans' count, total duration and
// self time.
type LayerTime struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// SelfTimes computes every layer's self time: each span's duration
// minus the part of its interval that its children cover (overlapping
// children are counted once, and a child's time outside its parent is
// ignored).
func SelfTimes(spans []Span) map[string]LayerTime {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]LayerTime)
	for _, s := range spans {
		d := s.End - s.Start
		self := d - covered(s.Start, s.End, children[s.ID])
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(self)
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, spans []Span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}
