package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTime(t *testing.T) {
	// op [0,100) holds a [10,40) and b [50,90); a holds c [20,30).
	spans := withSelf([]span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100, Alloc: 1000},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 40, Alloc: 300},
		{ID: 3, Parent: 2, Op: 1, Name: "c", Start: 20, End: 30, Alloc: 100},
		{ID: 4, Parent: 1, Op: 1, Name: "b", Start: 50, End: 90, Alloc: 500},
	})
	want := map[string][2]int64{"op": {30, 200}, "a": {20, 200}, "c": {10, 100}, "b": {40, 500}}
	for _, s := range spans {
		if got := [2]int64{s.Self, s.SelfB}; got != want[s.Name] {
			t.Errorf("%s: self time and allocation %v, want %v", s.Name, got, want[s.Name])
		}
	}
}

func TestLayerPrefersTimedOps(t *testing.T) {
	ms := int64(1e6)
	spans := withSelf([]span{
		{ID: 1, Op: -1, Name: "lexer", End: 9 * ms},
		{ID: 2, Op: 0, Name: "lexer", End: 7 * ms},
		{ID: 3, Op: 1, Name: "lexer", End: 2 * ms, Counts: 10},
		{ID: 4, Op: 1, Name: "lexer", End: 2 * ms, Counts: 10},
		{ID: 5, Op: 2, Name: "lexer", End: 6 * ms, Counts: 30},
		{ID: 6, Op: 3, Name: "lexer", End: 5 * ms, Counts: 20},
		{ID: 7, Op: -1, Name: "sema", End: 3 * ms},
		{ID: 8, Op: -2, Name: "sema", End: 5 * ms},
		{ID: 9, Op: 0, Name: "strip", Label: "x", End: 8 * ms},
	})
	if got := layer(spans, "lexer", ""); got.ms != 5 || got.count != 20 {
		t.Errorf("lexer = %+v, want the median of the timed ops' sums: 5 ms, 20 tokens", got)
	}
	if got := layer(spans, "sema", ""); got.ms != 4 {
		t.Errorf("sema = %+v, want the median over set-ups: 4 ms", got)
	}
	if got := layer(spans, "strip", "x"); got.ms != 8 {
		t.Errorf("strip = %+v, want the check phase's 8 ms", got)
	}
	if got := layer(spans, "strip", "y"); got != (layerStat{}) {
		t.Errorf("unlabelled layer = %+v, want zero", got)
	}
}

func TestTracedOpExcludesSplitCalls(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 1, Op: 2, Name: "op", End: 100 * ms},
		{ID: 2, Parent: 1, Op: 2, Name: "split.frontend", Split: true, Start: 0, End: 30 * ms},
		{ID: 3, Parent: 1, Op: 2, Name: "compile", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Op: -1, Name: "op", End: 5 * ms},
	}
	got := tracedOpMs(spans)
	if len(got) != 1 || got[0] != 70 {
		t.Errorf("traced op latencies %v, want [70]", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	o := tr.op(4)
	o.begin("op", "")
	o.beginSplit("split.frontend", "")
	o.begin("lexer", "")
	o.count(12)
	o.end()
	o.end()
	o.end()
	var nilTrace *opTrace
	nilTrace.begin("ignored", "")
	nilTrace.end()
	spans := tr.finish()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID || !spans[1].Split || spans[2].Counts != 12 {
		t.Errorf("spans not nested as recorded: %+v", spans)
	}
	for _, s := range spans {
		if s.Op != 4 || s.End < s.Start || s.Self < 0 {
			t.Errorf("bad span %+v", s)
		}
	}
	path := t.TempDir() + "/spans.json"
	if err := writeSpans(path, "w", 7, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Seed  uint64 `json:"seed"`
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || doc.Seed != 7 || len(doc.Spans) != 3 {
		t.Errorf("span file does not read back: %v %+v", err, doc)
	}
}
