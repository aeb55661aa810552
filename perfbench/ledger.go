package main

import (
	"math"
	"slices"
	"time"

	"repro/tinge"
)

// span is one timed interval of a run, measured on the benchmark's side
// of a public call (or laid out from Result.Timer phases inside one).
type span struct {
	Name string `json:"name"`
	// Layer is the per-layer metric whose self time the span carries;
	// "" marks a container (the run itself, or a facade call whose
	// phases are its children).
	Layer  string `json:"layer,omitempty"`
	Start  int64  `json:"start"`  // unix nanoseconds
	Dur    int64  `json:"dur"`    // nanoseconds
	Parent int    `json:"parent"` // index of the enclosing span; -1 for the root
}

// spanLog collects the spans of one run in opening order.
type spanLog struct{ spans []span }

// begin opens a span under parent and returns its index.
func (l *spanLog) begin(name, layer string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Layer: layer, Start: time.Now().UnixNano(), Parent: parent})
	return len(l.spans) - 1
}

// end closes span i and returns its duration.
func (l *spanLog) end(i int) time.Duration {
	s := &l.spans[i]
	s.Dur = time.Now().UnixNano() - s.Start
	return time.Duration(s.Dur)
}

// phaseLayers maps Result.Timer phases to the per-layer metric they feed.
var phaseLayers = map[string]string{
	"normalize":  "mat.normalize_s",
	"precompute": "bspline.precompute_s",
	"threshold":  "core.threshold_s",
	"mi":         "core.scan_s",
	"dpi":        "grn.dpi_s",
}

// layoutPhases adds the engine's Timer phases as child spans of the
// facade span at index parent. The Timer records durations only, and the
// phases run one after another, so they are laid out back to back from
// the parent's start.
func (l *spanLog) layoutPhases(parent int, timer interface {
	Phases() []string
	Get(string) time.Duration
}) {
	at := l.spans[parent].Start
	for _, p := range timer.Phases() {
		d := timer.Get(p).Nanoseconds()
		l.spans = append(l.spans, span{Name: p, Layer: phaseLayers[p], Start: at, Dur: d, Parent: parent})
		at += d
	}
}

// selfTimes returns each span's duration minus its children's.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += float64(s.Dur) / 1e9
		if s.Parent >= 0 {
			self[s.Parent] -= float64(s.Dur) / 1e9
		}
	}
	return self
}

// layerSeconds sums the self time of every span per layer.
func layerSeconds(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, st := range selfTimes(spans) {
		if l := spans[i].Layer; l != "" {
			out[l] += st
		}
	}
	return out
}

// unattributedFrac is the share of the root span's wall time that no
// layer's self time accounts for: the run's own glue plus the part of
// each facade call outside the engine's timed phases.
func unattributedFrac(spans []span) float64 {
	root := 0.0
	for _, s := range spans {
		if s.Parent < 0 {
			root += float64(s.Dur) / 1e9
		}
	}
	if root == 0 {
		return 0
	}
	attributed := 0.0
	for _, v := range layerSeconds(spans) {
		attributed += v
	}
	return (root - attributed) / root
}

// record copies spans onto one thread row of a Chrome trace.
func record(rec *tinge.TraceRecorder, tid int, spans []span) {
	for _, s := range spans {
		rec.Record(tid, s.Name, time.Unix(0, s.Start), time.Duration(max(s.Dur, 0)))
	}
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20
