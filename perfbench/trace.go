package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced call from the benchmark into a layer. Spans of one
// simulated pass, or of one real region, share ID; Parent is the index
// (1-based) of the enclosing span in the log, 0 at the root.
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory; they are written at exit.
type tracer struct {
	t0    time.Time
	spans []span
	pass  int64
}

func (t *tracer) now() int64 {
	if t.t0.IsZero() {
		t.t0 = time.Now()
	}
	return time.Since(t.t0).Nanoseconds()
}

// begin opens a span under parent and returns its 1-based index. A span
// with parent 0 starts a new ID.
func (t *tracer) begin(name string, parent int) int {
	start := t.now()
	if parent == 0 {
		t.pass++
	}
	t.spans = append(t.spans, span{ID: t.pass, Name: name, Parent: parent, StartNS: start})
	return len(t.spans)
}

func (t *tracer) end(i int) { t.spans[i-1].EndNS = t.now() }

// writeSpans writes the span log as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
