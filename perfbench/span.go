package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans nest: a
// span's parent is the span open when it began, and every span under one
// root (one pass, or one ladder rung) shares that root's id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Root   int    `json:"root"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	// Self is Dur minus the durations of the span's children. Spans are
	// opened and closed by one goroutine, so children never overlap.
	Self int64 `json:"self_ns"`

	childNs int64
}

// tracer records spans in memory until the run ends. It is used from one
// goroutine. A nil *tracer records nothing, which is how passes run untraced.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name, label string) {
	if t == nil {
		return
	}
	s := span{ID: len(t.spans), Parent: -1, Root: len(t.spans), Name: name, Label: label,
		Start: time.Since(t.origin).Nanoseconds()}
	if k := len(t.open); k > 0 {
		p := &t.spans[t.open[k-1]]
		s.Parent, s.Root = p.ID, p.Root
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	k := len(t.open) - 1
	s := &t.spans[t.open[k]]
	t.open = t.open[:k]
	s.Dur = time.Since(t.origin).Nanoseconds() - s.Start
	s.Self = s.Dur - s.childNs
	if s.Parent >= 0 {
		t.spans[s.Parent].childNs += s.Dur
	}
	return time.Duration(s.Dur)
}

// mark returns a position; sum and find look only at spans begun after it.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// sum totals the durations of the named spans begun since mark, in seconds.
func (t *tracer) sum(mark int, name string) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.spans[mark:] {
		if s.Name == name {
			ns += s.Dur
		}
	}
	return float64(ns) / 1e9
}

// find returns the duration in seconds of the named, labelled span begun
// since mark.
func (t *tracer) find(mark int, name, label string) float64 {
	if t == nil {
		return 0
	}
	for _, s := range t.spans[mark:] {
		if s.Name == name && s.Label == label {
			return float64(s.Dur) / 1e9
		}
	}
	return 0
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
