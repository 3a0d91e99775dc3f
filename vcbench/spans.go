package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call.
type span struct {
	Name   string
	Op     string // the operation it belongs to: a sample index or job id
	ID     int
	Parent int // 0 for a root span
	Lane   int // which client or caller made the call
	Start  time.Duration
	End    time.Duration
}

// spanLog keeps the spans of a traced run in memory until it ends. A nil
// *spanLog records nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (0 when not recording).
func (l *spanLog) begin(name, op string, parent, lane int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, Op: op, ID: id, Parent: parent, Lane: lane, Start: time.Since(l.t0)})
	return id
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = time.Since(l.t0)
}

// writeChrome writes the spans as a Chrome-trace JSON array of complete
// ("X") events, one thread per lane, loadable in chrome://tracing or
// Perfetto.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	l.mu.Lock()
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	l.mu.Unlock()
	buf, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
