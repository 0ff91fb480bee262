package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// span is one timed call the benchmark makes into a layer. Op ids tell
// the phases apart: positive ids are timed ops, negative ids are set-ups,
// and 0 is the check phase after the timed loop.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  int64  `json:"alloc_bytes"`
	Split  bool   `json:"split,omitempty"` // extra work an untraced op does not do
	Self   int64  `json:"self_ns"`         // filled in by finish
	SelfB  int64  `json:"self_alloc_bytes"`
	Counts int64  `json:"count,omitempty"` // a layer's work count (tokens, steps)
}

// tracer keeps every span of a run in memory. A nil *tracer (and the nil
// *opTrace it hands out) records nothing, so untraced ops run the same
// code with no recording. Ops run one at a time on one goroutine, so a
// span's MemStats delta is its own allocation.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// op returns the recorder for one op.
func (t *tracer) op(id int) *opTrace {
	if t == nil {
		return nil
	}
	return &opTrace{t: t, op: id}
}

// opTrace records the nested spans of one op on one goroutine.
type opTrace struct {
	t     *tracer
	op    int
	stack []int   // indices of the open spans in t.spans
	alloc []int64 // TotalAlloc when each open span began
}

func totalAlloc() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.TotalAlloc)
}

// begin opens a span nested in the innermost open one.
func (o *opTrace) begin(name, label string) {
	o.open(name, label, false)
}

// beginSplit opens a span around split calls: module entry points timed
// on the op's inputs to divide a public call among modules.
func (o *opTrace) beginSplit(name, label string) {
	o.open(name, label, true)
}

func (o *opTrace) open(name, label string, split bool) {
	if o == nil {
		return
	}
	a := totalAlloc()
	parent := 0
	if n := len(o.stack); n > 0 {
		parent = o.t.spans[o.stack[n-1]].ID
	}
	o.t.spans = append(o.t.spans, span{
		ID: len(o.t.spans) + 1, Parent: parent, Op: o.op, Name: name, Label: label,
		Split: split, Start: time.Since(o.t.epoch).Nanoseconds(),
	})
	o.stack = append(o.stack, len(o.t.spans)-1)
	o.alloc = append(o.alloc, a)
}

// count attaches a work count to the innermost open span.
func (o *opTrace) count(n int64) {
	if o == nil {
		return
	}
	o.t.spans[o.stack[len(o.stack)-1]].Counts += n
}

// end closes the innermost open span.
func (o *opTrace) end() {
	if o == nil {
		return
	}
	now := time.Since(o.t.epoch).Nanoseconds()
	n := len(o.stack) - 1
	idx, a0 := o.stack[n], o.alloc[n]
	o.stack, o.alloc = o.stack[:n], o.alloc[:n]
	o.t.spans[idx].End = now
	o.t.spans[idx].Alloc = totalAlloc() - a0
}

// finish fills in every span's self time and self allocation: its own
// figure minus those of its direct children.
func (t *tracer) finish() []span {
	return withSelf(t.spans)
}

func withSelf(spans []span) []span {
	byID := make(map[int]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
		spans[i].Self = spans[i].End - spans[i].Start
		spans[i].SelfB = spans[i].Alloc
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			spans[p].Self -= s.End - s.Start
			spans[p].SelfB -= s.Alloc
		}
	}
	return spans
}

// layerStat is one layer's cost in one phase: medians over ops of the
// per-op sums of its spans' self time, self allocation and work count.
type layerStat struct{ ms, allocMB, count float64 }

// layer measures the spans named name (and labelled label, unless label
// is empty). It takes the timed ops when any of them ran the layer, else
// the set-ups, else the check phase: a layer that runs only while setting
// up is measured there.
func layer(spans []span, name, label string) layerStat {
	type sums struct{ ns, b, n int64 }
	phases := [3]map[int]*sums{{}, {}, {}}
	for _, s := range spans {
		if s.Name != name || (label != "" && s.Label != label) {
			continue
		}
		ph := 0
		switch {
		case s.Op < 0:
			ph = 1
		case s.Op == 0:
			ph = 2
		}
		acc := phases[ph][s.Op]
		if acc == nil {
			acc = &sums{}
			phases[ph][s.Op] = acc
		}
		acc.ns += s.Self
		acc.b += s.SelfB
		acc.n += s.Counts
	}
	for _, ops := range phases {
		if len(ops) == 0 {
			continue
		}
		var t, b, n []float64
		for _, a := range ops {
			t = append(t, float64(a.ns)/1e6)
			b = append(b, float64(a.b)/(1<<20))
			n = append(n, float64(a.n))
		}
		return layerStat{ms: median(t), allocMB: median(b), count: median(n)}
	}
	return layerStat{}
}

// tracedOpMs returns, for every timed op with a root span named "op", its
// duration without the split calls inside it: the traced op the
// untraced one is compared against to measure tracing overhead.
func tracedOpMs(spans []span) []float64 {
	split := map[int]int64{}
	for _, s := range spans {
		if s.Split && s.Op > 0 {
			split[s.Op] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == "op" && s.Parent == 0 && s.Op > 0 {
			out = append(out, float64(s.End-s.Start-split[s.Op])/1e6)
		}
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path, workload string, seed uint64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
