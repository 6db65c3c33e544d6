package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Parent is −1 for a root: every
// traced pass is one root, so spans of one pass share that root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Group  string `json:"group,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so pass code is written once.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (−1 on a nil tracer).
func (t *tracer) begin(name, group string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	return t.add(name, group, parent, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

func (t *tracer) add(name, group string, parent int32, start, end int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Group: group, Start: start, End: end})
	return id
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// finish computes every span's self time: its duration minus the part
// its children cover. Children of one span never overlap here, because
// every layer call is made from one goroutine.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// roots returns the root spans with the given name, in start order.
func (t *tracer) roots(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// under returns the spans below root (at any depth) with the given name;
// an empty group matches every group. Parents precede children, so one
// forward scan resolves membership.
func (t *tracer) under(root int32, name, group string) []span {
	in := map[int32]bool{root: true}
	var out []span
	for _, s := range t.spans[root+1:] {
		if s.Parent < 0 || !in[s.Parent] {
			continue
		}
		in[s.ID] = true
		if s.Name == name && (group == "" || s.Group == group) {
			out = append(out, s)
		}
	}
	return out
}

// perRoot returns, for each root span named root, the summed duration
// (or self time) of the spans below it matching name and group, in s.
func (t *tracer) perRoot(root, name, group string, self bool) []float64 {
	var out []float64
	for _, r := range t.roots(root) {
		var sum int64
		for _, s := range t.under(r.ID, name, group) {
			if self {
				sum += s.Self
			} else {
				sum += s.End - s.Start
			}
		}
		out = append(out, time.Duration(sum).Seconds())
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
