// Package trace records per-worker execution timelines and exports
// them in the Chrome trace-event format (load chrome://tracing or
// https://ui.perfetto.dev), the standard way to eyeball scheduling
// behaviour: tile boundaries, load imbalance, and the long
// permutation-test tiles dynamic scheduling exists to spread.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is one completed span on a worker's timeline.
type Event struct {
	Worker int
	Name   string
	Start  time.Duration // offset from the recorder's epoch
	Dur    time.Duration
}

// CounterSample is one point on a per-worker counter track (Chrome
// trace "C" events) — used for the scan's amortization counters
// (permutations skipped by early exit, permutations certified).
type CounterSample struct {
	Worker int
	Name   string
	At     time.Duration // offset from the recorder's epoch
	Value  float64
}

// Recorder accumulates events. It is safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	events   []Event
	counters []CounterSample
}

// NewRecorder starts a recorder whose epoch is now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// Record adds a completed span.
func (r *Recorder) Record(worker int, name string, start time.Time, dur time.Duration) {
	if dur < 0 {
		panic(fmt.Sprintf("trace: negative duration %v", dur))
	}
	r.mu.Lock()
	r.events = append(r.events, Event{
		Worker: worker,
		Name:   name,
		Start:  start.Sub(r.epoch),
		Dur:    dur,
	})
	r.mu.Unlock()
}

// Span starts a span and returns its closer; defer it (or call it) when
// the work finishes.
func (r *Recorder) Span(worker int, name string) func() {
	start := time.Now()
	return func() {
		r.Record(worker, name, start, time.Since(start))
	}
}

// Counter samples a monotonic (or free-form) per-worker counter at the
// current time. Counter samples live on a separate track and do not
// affect Len or Utilization.
func (r *Recorder) Counter(worker int, name string, value float64) {
	at := time.Since(r.epoch)
	r.mu.Lock()
	r.counters = append(r.counters, CounterSample{
		Worker: worker,
		Name:   name,
		At:     at,
		Value:  value,
	})
	r.mu.Unlock()
}

// Len returns the number of recorded span events (counter samples are
// not included).
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Counters returns a copy of the recorded counter samples sorted by
// sample time.
func (r *Recorder) Counters() []CounterSample {
	r.mu.Lock()
	out := append([]CounterSample(nil), r.counters...)
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}

// Events returns a copy of the recorded events sorted by start time.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// chromeEvent is the trace-event JSON shape ("X" = complete event,
// "C" = counter sample; timestamps in microseconds).
type chromeEvent struct {
	Name string             `json:"name"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`
	Dur  float64            `json:"dur,omitempty"`
	Pid  int                `json:"pid"`
	Tid  int                `json:"tid"`
	Args map[string]float64 `json:"args,omitempty"`
}

// WriteChromeTrace emits the spans (as "X" complete events) and counter
// samples (as "C" counter events) as a Chrome trace-event JSON array.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	counters := r.Counters()
	out := make([]chromeEvent, 0, len(events)+len(counters))
	for _, e := range events {
		out = append(out, chromeEvent{
			Name: e.Name,
			Ph:   "X",
			Ts:   float64(e.Start.Nanoseconds()) / 1e3,
			Dur:  float64(e.Dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  e.Worker,
		})
	}
	for _, c := range counters {
		out = append(out, chromeEvent{
			Name: c.Name,
			Ph:   "C",
			Ts:   float64(c.At.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  c.Worker,
			Args: map[string]float64{"value": c.Value},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Utilization returns each worker's busy fraction over the makespan
// (first start to last end across all workers). Workers with no events
// report 0. It returns nil when nothing was recorded.
func (r *Recorder) Utilization(workers int) []float64 {
	events := r.Events()
	if len(events) == 0 {
		return nil
	}
	first := events[0].Start
	last := first
	busy := make([]time.Duration, workers)
	for _, e := range events {
		if end := e.Start + e.Dur; end > last {
			last = end
		}
		if e.Worker >= 0 && e.Worker < workers {
			busy[e.Worker] += e.Dur
		}
	}
	span := last - first
	out := make([]float64, workers)
	if span <= 0 {
		return out
	}
	for w := range out {
		out[w] = float64(busy[w]) / float64(span)
		if out[w] > 1 {
			out[w] = 1 // overlapping spans on one worker clamp
		}
	}
	return out
}
