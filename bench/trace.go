package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function. Spans are kept
// in memory and written out when the run ends.
//
// The traced pass is a stage replay: after the real call at the top of
// an operation (a socket round trip, a handler call, a shard.Join) has
// been timed, the benchmark repeats the work one layer down through
// that layer's public functions, and again below that. A child span is
// therefore a REPLAY of part of its parent, run after the parent ended;
// Parent says which span it decomposes, not which span was on the stack.
// A layer's self time is its span minus its child spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: top of an operation
	Op     int    `json:"op"`     // 0: set-up work
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times fn as a span that decomposes parent and returns its ID, for
// use as the parent of the next level's replays.
func (t *tracer) do(op, parent int, name string, fn func()) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans[id-1].Start, t.spans[id-1].End = int64(start), int64(end)
	return id
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	total time.Duration // sum of span durations
	self  time.Duration // total minus the spans' children
	calls int
}

// layers folds the spans by name.
func (t *tracer) layers() map[string]*layerTime {
	children := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.dur()
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.total += s.dur()
		lt.self += s.dur() - children[s.ID]
		lt.calls++
	}
	return out
}

// opTime is the traced time of the operations: the sum of every span
// that belongs to one (the top-level calls and all their replays).
func (t *tracer) opTime() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Op > 0 {
			d += s.dur()
		}
	}
	return d
}

func (t *tracer) write(dir, workload string) error {
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), blob, 0o644)
}
