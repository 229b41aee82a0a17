package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one point, cell or request
// share op; parent is the enclosing span's id (0 for a root).
type span struct {
	name       string
	id, parent int64
	op         int64
	lane       int
	start, end time.Time
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	ids   int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so children can name a parent that is
// recorded after them.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// record stores one finished span under a reserved id (0 reserves one).
func (t *tracer) record(id int64, name string, parent, op int64, lane int, start, end time.Time) {
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, id, parent, op, lane, start, end})
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover — the layer's own time.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.name] += s.end.Sub(s.start) - child[s.id]
	}
	return self
}

// durations lists the durations of every span with the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end.Sub(s.start))/1e6)
		}
	}
	return out
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves the spans in the Chrome-trace JSON format metrics.Tracer
// emits (complete events, microsecond timestamps), one lane per worker or
// client, so the file opens in Perfetto.
func (t *tracer) write(path string) error {
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].start.Before(t.spans[j].start) })
	evs := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, traceEvent{
			Name: s.name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finish writes the trace file and reports each layer's self time.
func (t *tracer) finish(e *env, o *outcome, workload string) error {
	for name, d := range t.selfTimes() {
		o.setExtra("self_s."+name, "s", d.Seconds())
	}
	path := filepath.Join(e.traces, workload+".json")
	if err := t.write(path); err != nil {
		return err
	}
	o.traceFile = path
	return nil
}
