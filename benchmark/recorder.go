package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one recorded call into a layer. A replay span re-runs, after the
// op finished, work that happened inside its parent where the benchmark
// cannot reach (the decoder inside the collector handler, the encoder
// inside ScoreBatch): it lies outside its parent's interval and exists to
// be subtracted from the parent's self time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op root
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Replay bool   `json:"replay,omitempty"`
}

// recorder keeps the spans of a traced run in memory. The staged replay is
// serial, so it needs no lock.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open starts a span and returns its id; end closes it.
func (r *recorder) open(op, parent int, layer, name string, replay bool) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Replay: replay})
	r.spans[id].Start = int64(time.Since(r.t0))
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// do runs fn inside a new span and returns the span's id.
func (r *recorder) do(op, parent int, layer, name string, replay bool, fn func()) int {
	id := r.open(op, parent, layer, name, replay)
	fn()
	r.end(id)
	return id
}

// dur returns a span's duration in nanoseconds.
func (r *recorder) dur(id int) float64 { return float64(r.spans[id].End - r.spans[id].Start) }

// nameTotal is the summed duration (ns) and the count of the spans of one name.
type nameTotal struct {
	ns float64
	n  int
}

// totals sums the spans by name.
func (r *recorder) totals() map[string]nameTotal {
	out := map[string]nameTotal{}
	for i := range r.spans {
		t := out[r.spans[i].Name]
		out[r.spans[i].Name] = nameTotal{t.ns + r.dur(i), t.n + 1}
	}
	return out
}

// selfTimes returns each layer's self time (a span's duration minus its
// children's, floored at zero) and the summed duration of the op roots, all
// in nanoseconds. Root self time is filed under the layer "e2e": glue the
// benchmark runs between stages that no layer owns.
func (r *recorder) selfTimes() (byLayer map[string]float64, opTotal float64) {
	children := make([]float64, len(r.spans))
	for i := range r.spans {
		if p := r.spans[i].Parent; p >= 0 {
			children[p] += r.dur(i)
		}
	}
	byLayer = map[string]float64{}
	for i := range r.spans {
		self := r.dur(i) - children[i]
		if self < 0 {
			self = 0
		}
		byLayer[r.spans[i].Layer] += self
		if r.spans[i].Parent < 0 {
			opTotal += r.dur(i)
		}
	}
	return byLayer, opTotal
}

// write stores the spans as JSON under dir.
func (r *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
