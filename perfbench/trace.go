package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the benchmark records around a call into a
// layer of the program. Spans of one operation share Op, the id of the
// operation's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for an operation's root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at the end of
// the run, so recording costs two clock reads and an append.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// begin opens a span under parent (0 opens a new operation) and returns
// its id.
func (t *tracer) begin(name string, parent int) int {
	now := t.since(time.Now())
	return t.push(name, parent, now, now)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// add records a span whose bounds were measured elsewhere, such as the
// server timestamps of a job's event feed.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	return t.push(name, parent, t.since(start), t.since(end))
}

func (t *tracer) push(name string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTimes is one span broken down by its direct children: the part
// of its interval they cover (overlapping children counted once, parts
// outside the span clipped) and its self time, the rest.
type layerTimes struct {
	Span    span
	Covered time.Duration
	Self    time.Duration
}

// breakdown returns the layer times of every span named name.
func (t *tracer) breakdown(name string) []layerTimes {
	spans := t.snapshot()
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []layerTimes
	for _, s := range spans {
		if s.Name == name {
			c := covered(s, kids[s.ID])
			out = append(out, layerTimes{Span: s, Covered: c, Self: s.dur() - c})
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
