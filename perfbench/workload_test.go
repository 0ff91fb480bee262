package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The seed re-draws the programs but keeps each workload's size mix.

func TestScaledSeriesSeeded(t *testing.T) {
	a, b, c := scaledSeries(1), scaledSeries(1), scaledSeries(2)
	for i := range a {
		if a[i].src != b[i].src || len(a[i].ground) != len(b[i].ground) {
			t.Errorf("%d classes: one seed drew two programs", a[i].classes)
		}
		if a[i].src.Text == c[i].src.Text {
			t.Errorf("%d classes: two seeds drew one program", a[i].classes)
		}
		if a[i].classes != c[i].classes || a[i].src.Name != c[i].src.Name {
			t.Errorf("series %d differs in shape across seeds", i)
		}
	}
}

func TestCorpusSeeded(t *testing.T) {
	a, err := corpus(1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := corpus(1)
	c, _ := corpus(2)
	if len(a) != len(corpusNames) {
		t.Fatalf("%d programs, want %d", len(a), len(corpusNames))
	}
	for i, p := range a {
		if p.name != corpusNames[i] || c[i].name != p.name {
			t.Errorf("program %d is %s/%s, want %s", i, p.name, c[i].name, corpusNames[i])
		}
		if p.srcs[0] != b[i].srcs[0] {
			t.Errorf("%s: one seed drew two programs", p.name)
		}
		_, classic := classicOutputs[p.name]
		if same := p.srcs[0] == c[i].srcs[0]; same != classic {
			t.Errorf("%s: identical across seeds = %t, want %t", p.name, same, classic)
		}
	}
}

func TestServeStreamSeeded(t *testing.T) {
	const blocks = 3
	a, b, c := buildStream(1, blocks), buildStream(1, blocks), buildStream(2, blocks)
	if len(a.reqs) != blocks*blockSize || len(a.progs) != len(b.progs) {
		t.Fatalf("%d requests over %d programs", len(a.reqs), len(a.progs))
	}
	for i := range a.reqs {
		if a.reqs[i] != b.reqs[i] {
			t.Fatalf("request %d differs under one seed", i)
		}
	}
	for i := range a.progs {
		if a.progs[i].text != b.progs[i].text {
			t.Fatalf("program %d differs under one seed", i)
		}
	}
	if a.progs[0].text == c.progs[0].text {
		t.Error("two seeds drew the same first program")
	}
	for _, st := range []*stream{a, c} {
		checkStream(t, st)
	}
}

// checkStream verifies the stratified mix and the class definitions.
func checkStream(t *testing.T, st *stream) {
	t.Helper()
	seen := map[[2]int]int{}
	nprogs := 0
	for b := 0; b*blockSize < len(st.reqs); b++ {
		classes := map[reqClass]int{}
		sizes := map[reqClass]map[int]int{classFirst: {}, classRevisit: {}, classRepeat: {}}
		endpoints := map[string]int{}
		for i := b * blockSize; i < (b+1)*blockSize; i++ {
			req := st.reqs[i]
			classes[req.class]++
			p := st.progs[req.prog]
			sizes[req.class][p.classes]++
			key := [2]int{req.prog, req.variant}
			first, repeated := seen[key]
			switch req.class {
			case classFirst:
				endpoints[fmt.Sprint(p.classes, serveVariants[req.variant].endpoint)]++
				if repeated || req.prog != nprogs {
					t.Errorf("request %d: a new program was seen before", i)
				}
				nprogs++
			case classRevisit:
				if repeated || serveVariants[req.variant].endpoint == "strip" {
					t.Errorf("request %d: a revisit must ask analyze or lint for something new", i)
				}
			case classRepeat:
				if !repeated || req.orig != first {
					t.Errorf("request %d: a repeat must point at its original", i)
				}
			}
			if !repeated {
				seen[key] = i
				if req.orig != i {
					t.Errorf("request %d: original points elsewhere", i)
				}
			}
		}
		if classes[classFirst] != blockFirst || classes[classRevisit] != blockRevisit {
			t.Errorf("block %d mix %v", b, classes)
		}
		for c, bySize := range sizes {
			for _, n := range serveSizes {
				if bySize[n] != classes[c]/len(serveSizes) {
					t.Errorf("block %d: %d %s requests of %d classes", b, bySize[n], classNames[c], n)
				}
			}
		}
		for k, n := range endpoints {
			if n != blockFirst/len(serveSizes)/3 {
				t.Errorf("block %d: %d new programs for %s", b, n, k)
			}
		}
	}
}

func TestTracedHalfKeepsTheMix(t *testing.T) {
	st := buildStream(3, 2)
	traced := st.tracedHalf()
	count := [2]map[reqClass]int{{}, {}}
	for i, req := range st.reqs {
		k := 0
		if traced[i] {
			k = 1
		}
		count[k][req.class]++
	}
	for _, c := range []reqClass{classFirst, classRevisit, classRepeat} {
		if d := count[0][c] - count[1][c]; d < 0 || d > len(serveVariants)*len(serveSizes) {
			t.Errorf("%s: %d untraced vs %d traced", classNames[c], count[0][c], count[1][c])
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics printed
// here in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(names) != len(workloads) {
		sort.Strings(names)
		t.Errorf("BENCHMARK.json workloads %v, want all %d", names, len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), printed %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestNamesNoRetiringAPI keeps the benchmark off the APIs ROADMAP plans
// to delete (the execution-engine knob and the flat stage timings), so
// retiring them lands as a measured change instead of breaking it.
func TestNamesNoRetiringAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := regexp.MustCompile(`\b(\w*Engine\w*|ExecutorFor|Timings|AnalyzeTimed\w*)\b`)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := banned.Find(b); m != nil {
			t.Errorf("%s names %s", f, m)
		}
	}
}
