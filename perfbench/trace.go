package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call. Req groups the spans of one request or run:
// a serve request's client span and handler span share it.
type span struct {
	ID    int    `json:"id"`
	Req   int    `json:"req,omitempty"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the end-to-end path pays one
// nil check per call site.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, req int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished span with a known duration, for calls timed
// elsewhere (a handler wrapper, a round tripper).
func (t *tracer) record(name string, req int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.base))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Req: req, Name: name, Start: s, End: s + int64(d)})
	t.mu.Unlock()
}

// total is the summed duration of every closed span with the name, in ms.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			sum += s.End - s.Start
		}
	}
	return float64(sum) / 1e6
}

// write stores the spans as JSON in dir.
func (t *tracer) write(dir, file string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}
