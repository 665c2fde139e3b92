package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made: an HTTP op, or a call
// into one library layer during the in-process replay. Spans of one op
// share op; parent is the index of the enclosing span, -1 at the root.
type span struct {
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; they are analysed
// and written out once measuring is over. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(op int64, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// dur returns span i's length.
func (t *tracer) dur(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i].End - t.spans[i].Start
}

// timed runs f inside a span.
func (t *tracer) timed(op int64, name string, parent int, f func()) {
	i := t.begin(op, name, parent)
	f()
	t.end(i)
}

// selfTimes returns each span name's self times: a span's duration
// minus the part of it that its direct children cover (overlapping
// children are merged, so concurrent children are not subtracted
// twice).
func selfTimes(spans []span) map[string][]time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range spans {
		self := s.End - s.Start - covered(kids[i], s.Start, s.End)
		out[s.Name] = append(out[s.Name], self)
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]time.Duration(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	curLo, curHi := iv[0][0], iv[0][1]
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, x := range iv[1:] {
		if x[0] > curHi {
			flush()
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	flush()
	return total
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
