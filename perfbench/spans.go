package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// (serve) or one figure (campaign) share a Trace; Parent names the span
// that caused this one (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the recorder's epoch
	End    time.Duration `json:"end_ns"`
	// Key is the job key the span worked on, when it has one.
	Key string `json:"key,omitempty"`
	// Class is "fork" or "nofork" for job spans.
	Class string `json:"class,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out. Span IDs
// are allocated when a span opens, so a child can name its parent before
// the parent has ended.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// open allocates a span ID and returns it with the span's start offset.
func (r *recorder) open() (int64, time.Duration) {
	return r.nextID.Add(1), time.Since(r.epoch)
}

// at converts a wall-clock instant to the recorder's time base.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.epoch) }

// add records a completed span.
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot copies the recorded spans, ordered by start.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeFile writes every recorded span as JSON.
func (r *recorder) writeFile(path string) error {
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type spanCtxKey struct{}

type spanRef struct {
	id    int64
	trace string
}

// withSpan makes id the parent of spans opened under the returned context.
func withSpan(ctx context.Context, id int64, trace string) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{id, trace})
}

// spanFrom returns the innermost span opened under ctx (zero if none).
func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return ref
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children are clipped to the parent's interval and
// overlapping children are counted once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}
