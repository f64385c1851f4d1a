package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer. Spans of one
// operation share op; parent indexes the enclosing span (-1 for a root).
type span struct {
	name       string
	op         int64
	tid        int
	parent     int
	start, end time.Duration // since the tracer started
}

// tracer keeps spans in memory for the traced run and writes them out when
// the benchmark ends. A nil *tracer records nothing, which is how the
// untraced run measures the end-to-end metrics.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children's parent.
func (t *tracer) begin(name string, op int64, tid, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, tid: tid, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// self returns each span's self time: its duration minus the time its
// closed children cover (children of one span run one after another, so
// their durations add up), or -1 for a span still open. t.mu must be held.
func (t *tracer) self() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.end - s.start
		if s.end < 0 {
			self[i] = -1
		}
	}
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 && self[s.parent] >= 0 {
			self[s.parent] = max(self[s.parent]-(s.end-s.start), 0)
		}
	}
	return self
}

// selfTimes returns, per span name, each closed span's self time in ms.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for i, d := range t.self() {
		if d >= 0 {
			out[t.spans[i].name] = append(out[t.spans[i].name], ms(d))
		}
	}
	return out
}

// unexplained returns the share of the named root spans' wall time that no
// child span covers.
func (t *tracer) unexplained(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var wall, self time.Duration
	for i, d := range t.self() {
		if s := t.spans[i]; s.name == root && d >= 0 {
			wall += s.end - s.start
			self += d
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(self) / float64(wall)
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), the format chrome://tracing and Perfetto
// open.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		args := map[string]any{"id": i, "op": s.op}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid, Args: args,
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
