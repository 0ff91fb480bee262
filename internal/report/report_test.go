package report

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"deadmembers/internal/bench"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/frontend"
	"deadmembers/internal/heaplive"
)

var (
	resultsOnce sync.Once
	resultsAll  []*BenchmarkResult
	resultsErr  error
)

func allResults(t *testing.T) []*BenchmarkResult {
	t.Helper()
	resultsOnce.Do(func() {
		resultsAll, resultsErr = CollectAll(context.Background(), engine.NewSession(engine.Config{}, engine.Limits{}))
	})
	if resultsErr != nil {
		t.Fatalf("CollectAll: %v", resultsErr)
	}
	return resultsAll
}

func TestCollectAllCoversCorpus(t *testing.T) {
	rs := allResults(t)
	if len(rs) != 11 {
		t.Fatalf("collected %d results, want 11", len(rs))
	}
	for _, r := range rs {
		if r.LOC == 0 || r.Classes == 0 || r.Members == 0 {
			t.Errorf("%s: empty static characteristics: %+v", r.Name, r)
		}
		if r.ObjectSpace == 0 {
			t.Errorf("%s: no object space measured", r.Name)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1(allResults(t))
	for _, want := range []string{"Table 1", "jikes", "richards", "deltablue", "classes(used)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 13 {
		t.Errorf("Table1 has %d lines, want at least 13 (header + 11 rows)", lines)
	}
}

func TestFigure3Rendering(t *testing.T) {
	out := Figure3(allResults(t))
	if !strings.Contains(out, "Figure 3") {
		t.Error("missing caption")
	}
	// taldict has the tallest bar.
	var taldictBar, schedBar int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "taldict") {
			taldictBar = strings.Count(line, "#")
		}
		if strings.HasPrefix(line, "sched") {
			schedBar = strings.Count(line, "#")
		}
	}
	if taldictBar <= schedBar {
		t.Errorf("taldict bar (%d) should exceed sched bar (%d)", taldictBar, schedBar)
	}
}

func TestTable2Rendering(t *testing.T) {
	out := Table2(allResults(t))
	for _, want := range []string{"Table 2", "object space", "high water mark", "sched"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q", want)
		}
	}
}

func TestFigure4Rendering(t *testing.T) {
	out := Figure4(allResults(t))
	if !strings.Contains(out, "Figure 4") {
		t.Error("missing caption")
	}
	// Two bars per benchmark: 22 bar lines.
	bars := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "|") {
			bars++
		}
	}
	if bars != 22 {
		t.Errorf("Figure 4 has %d bar lines, want 22 (two per benchmark)", bars)
	}
}

func TestSummaryHeadlines(t *testing.T) {
	rs := allResults(t)
	s := Summarize(rs)
	if s.AvgDeadPercent < 11.5 || s.AvgDeadPercent > 13.5 {
		t.Errorf("avg dead%% = %.2f, want ≈12.5 (paper)", s.AvgDeadPercent)
	}
	if s.MaxDeadPercent < 26.3 || s.MaxDeadPercent > 28.3 {
		t.Errorf("max dead%% = %.2f, want ≈27.3 (paper)", s.MaxDeadPercent)
	}
	if s.MaxDynPercent < 11.0 || s.MaxDynPercent > 12.2 {
		t.Errorf("max dynamic dead%% = %.2f, want ≈11.6 (paper)", s.MaxDynPercent)
	}
	out := Summary(rs)
	if !strings.Contains(out, "12.5%") || !strings.Contains(out, "27.3%") {
		t.Error("summary must quote the paper's numbers for comparison")
	}
}

func TestNoStrongStaticDynamicCorrelation(t *testing.T) {
	// Paper §4.3: "there is no strong correlation between a high
	// percentage of dead data members in Figure 3, and a high percentage
	// of object space occupied by those data members in Figure 4."
	corr := StaticDynamicCorrelation(allResults(t))
	if corr > 0.5 {
		t.Errorf("static/dynamic correlation = %.2f; paper observes no strong (positive) correlation", corr)
	}
	// Both decoupling directions must exist in the corpus, as in the
	// paper: high-static/low-dynamic (taldict) and low-static/high-dynamic
	// (sched).
	var taldict, sched *BenchmarkResult
	for _, r := range allResults(t) {
		switch r.Name {
		case "taldict":
			taldict = r
		case "sched":
			sched = r
		}
	}
	if taldict.DeadPercent < 20 || taldict.DynDeadPercent > 2 {
		t.Errorf("taldict should be high-static/low-dynamic: %.1f%%/%.2f%%",
			taldict.DeadPercent, taldict.DynDeadPercent)
	}
	if sched.DeadPercent > 5 || sched.DynDeadPercent < 10 {
		t.Errorf("sched should be low-static/high-dynamic: %.1f%%/%.2f%%",
			sched.DeadPercent, sched.DynDeadPercent)
	}
}

func TestCSVExport(t *testing.T) {
	out := CSV(allResults(t))
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 12 {
		t.Fatalf("CSV has %d lines, want 12 (header + 11)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "benchmark,loc,") {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
	for _, l := range lines[1:] {
		if got := strings.Count(l, ","); got != 12 {
			t.Errorf("CSV row %q has %d commas, want 12", l, got)
		}
	}
}

func TestAblations(t *testing.T) {
	rows, err := RunAblations(context.Background(), engine.NewSession(engine.Config{}, engine.Limits{}))
	if err != nil {
		t.Fatalf("RunAblations: %v", err)
	}
	if len(rows) != 11 {
		t.Fatalf("got %d ablation rows, want 11", len(rows))
	}
	for _, r := range rows {
		// Monotonicity: more precise call graphs find at least as many
		// dead members.
		if !(r.DeadALL <= r.DeadCHA && r.DeadCHA <= r.DeadRTA) {
			t.Errorf("%s: call-graph monotonicity violated: ALL=%d CHA=%d RTA=%d",
				r.Name, r.DeadALL, r.DeadCHA, r.DeadRTA)
		}
		// Disabling rules can only lose dead members.
		if r.DeadSizeofConservative > r.DeadRTA {
			t.Errorf("%s: conservative sizeof found MORE dead members (%d > %d)",
				r.Name, r.DeadSizeofConservative, r.DeadRTA)
		}
		if r.DeadNoDeleteRule > r.DeadRTA {
			t.Errorf("%s: disabling the delete rule found MORE dead members (%d > %d)",
				r.Name, r.DeadNoDeleteRule, r.DeadRTA)
		}
		// §2's claim: counting writes as uses leaves almost nothing dead
		// (every corpus member is initialized in a constructor).
		if r.DeadWritesAreUses != 0 {
			t.Errorf("%s: writes-as-uses should find 0 dead members (all are ctor-initialized), got %d",
				r.Name, r.DeadWritesAreUses)
		}
	}
	// The generated corpus plants unreachable-read members, so ALL (which
	// treats all functions as reachable) must find strictly fewer dead
	// members than RTA on at least one benchmark.
	stricter := false
	for _, r := range rows {
		if r.DeadALL < r.DeadRTA {
			stricter = true
		}
	}
	if !stricter {
		t.Error("expected ALL to lose dead members relative to RTA somewhere in the corpus")
	}
	out := AblationTable(rows)
	if !strings.Contains(out, "Ablations") || !strings.Contains(out, "RTA") {
		t.Error("ablation table rendering incomplete")
	}
}

// TestAblationSweepCompilesOncePerBenchmark is the compile-counter check
// for the engine's core economy: the corpus-wide six-variant ablation
// sweep performs exactly one frontend compile per benchmark, every later
// exhibit over the same session is a pure cache hit, and the resulting
// table is byte-identical to the one produced by recompiling per variant
// with the pre-engine frontend path.
func TestAblationSweepCompilesOncePerBenchmark(t *testing.T) {
	s := engine.NewSession(engine.Config{}, engine.Limits{})
	rows, err := RunAblations(context.Background(), s)
	if err != nil {
		t.Fatalf("RunAblations: %v", err)
	}
	n := len(bench.All())
	if st := s.Stats(); st.Compiles != n || st.Hits != 0 {
		t.Fatalf("ablation sweep stats = %+v, want exactly %d compiles and 0 hits", st, n)
	}

	// A full result collection afterwards must not compile anything new.
	if _, err := CollectAll(context.Background(), s); err != nil {
		t.Fatalf("CollectAll: %v", err)
	}
	if st := s.Stats(); st.Compiles != n || st.Hits != n {
		t.Fatalf("after collection stats = %+v, want still %d compiles and %d hits", st, n, n)
	}

	// Seed-equivalence: recompute every row the old way — one frontend
	// compile and one analysis per (benchmark, variant) — and require the
	// rendered tables to match byte-for-byte.
	var seed []*AblationRow
	for _, b := range bench.All() {
		row := &AblationRow{Name: b.Name}
		for _, v := range ablationVariants(row) {
			r := frontend.Compile(b.Sources...)
			if err := r.Err(); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			st := deadmember.Analyze(r.Program, r.Graph, v.opts).Stats()
			*v.dst = st.DeadMembers
			row.Members = st.Members
		}
		seed = append(seed, row)
	}
	if got, want := AblationTable(rows), AblationTable(seed); got != want {
		t.Fatalf("engine ablation table differs from the recompile-per-variant table:\n--- engine ---\n%s--- seed ---\n%s", got, want)
	}
}

// TestSweepSurvivesDegradedBenchmark: a panic contained while compiling
// one benchmark must not abandon the sweep — the crashed benchmark gets a
// degraded stub row and every other row is measured normally.
func TestSweepSurvivesDegradedBenchmark(t *testing.T) {
	s := engine.NewSession(engine.Config{ParseFault: func(name string) {
		if name == "richards.mcc" {
			panic("injected parse fault")
		}
	}}, engine.Limits{})
	results, err := CollectAll(context.Background(), s)
	if err != nil {
		t.Fatalf("sweep aborted: %v", err)
	}
	if len(results) != len(bench.All()) {
		t.Fatalf("got %d rows, want one per benchmark (%d)", len(results), len(bench.All()))
	}
	if !AnyDegraded(results) {
		t.Fatal("expected a degraded row")
	}
	for _, r := range results {
		if r.Name == "richards" {
			if !r.Degraded || r.FailReason == "" {
				t.Errorf("richards row = %+v, want degraded with a reason", r)
			}
		} else if r.Degraded {
			t.Errorf("%s unexpectedly degraded: %s", r.Name, r.FailReason)
		} else if r.Members == 0 {
			t.Errorf("%s has no measurements", r.Name)
		}
	}
	if note := DegradedNote(results); !strings.Contains(note, "richards") {
		t.Errorf("DegradedNote = %q, want it to name richards", note)
	}
	if sum := Summarize(results); sum.AvgDeadPercent <= 0 {
		t.Errorf("summary over surviving rows is empty: %+v", sum)
	}
}

// TestSweepAbortsOnCancellation: cancellation is not a per-benchmark
// failure — it aborts the whole sweep with an error.
func TestSweepAbortsOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CollectAll(ctx, engine.NewSession(engine.Config{}, engine.Limits{})); err == nil {
		t.Fatal("expected the cancelled sweep to report an error")
	}
}

// TestAblationsAbortOnCancellation: the ablation sweep's analyses run
// under its context. The session already holds every benchmark, so
// compiling is a cache hit and the error comes from the analysis.
func TestAblationsAbortOnCancellation(t *testing.T) {
	s := engine.NewSession(engine.Config{}, engine.Limits{})
	for _, b := range bench.All() {
		if _, err := b.Compile(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunAblations(ctx, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ablation sweep returned %v, want the context's error", err)
	}
}

// TestPrecisionCostsMeasured holds the frontier table to a measured
// cost at every tier. Flow and heap come from one lint pass, so the
// heap result is a lint-cache hit; its column must still carry that
// pass's wall clock rather than the hit's zero.
func TestPrecisionCostsMeasured(t *testing.T) {
	clean := 0
	for _, r := range allResults(t) {
		if r.Degraded {
			continue
		}
		clean++
		for _, p := range heaplive.Tiers() {
			if r.TierLint[p.Rank()] <= 0 {
				t.Errorf("%s: %s tier lint cost is %v", r.Name, p, r.TierLint[p.Rank()])
			}
		}
		flow, heap := r.TierLint[heaplive.PrecisionFlow.Rank()], r.TierLint[heaplive.PrecisionHeap.Rank()]
		if flow != heap {
			t.Errorf("%s: flow cost %v != heap cost %v, but one pass computes both", r.Name, flow, heap)
		}
	}
	if clean == 0 {
		t.Fatal("no clean rows")
	}
}

// TestTimingsTableMarksCacheHits: a stage served from the compilation's
// cache prints "cached" instead of its zero duration, for the liveness
// pass as for the call graph.
func TestTimingsTableMarksCacheHits(t *testing.T) {
	hit := &BenchmarkResult{Name: "hit", Timings: engine.Timings{CallGraphCached: true, LivenessCached: true}}
	miss := &BenchmarkResult{Name: "miss", Timings: engine.Timings{CallGraph: time.Millisecond, Liveness: 2 * time.Millisecond}}
	rows := map[string]string{}
	for _, line := range strings.Split(TimingsTable([]*BenchmarkResult{hit, miss}, engine.Stats{}), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = line
		}
	}
	if n := strings.Count(rows["hit"], "cached"); n != 2 {
		t.Errorf("cache-hit row shows %d cached stages, want 2: %q", n, rows["hit"])
	}
	if strings.Contains(rows["miss"], "cached") || !strings.Contains(rows["miss"], "2ms") {
		t.Errorf("miss row should show measured stages: %q", rows["miss"])
	}
}
