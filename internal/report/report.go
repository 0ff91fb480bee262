// Package report runs the full evaluation pipeline over the benchmark
// corpus and renders the paper's exhibits: Table 1 (benchmark
// characteristics), Figure 3 (static dead-member percentages), Table 2
// (dynamic byte counts), Figure 4 (dead object space and high-water-mark
// reduction), the headline summary, and the ablation studies.
package report

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/engine"
	"deadmembers/internal/failure"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/lint"
)

// BenchmarkResult is everything measured for one corpus benchmark.
type BenchmarkResult struct {
	Name        string
	Description string
	Paper       bench.PaperRow

	// Static (Table 1 / Figure 3).
	LOC         int
	Classes     int
	UsedClasses int
	Members     int
	DeadMembers int
	DeadPercent float64

	// Dynamic (Table 2 / Figure 4).
	ObjectSpace    int64
	DeadSpace      int64
	HighWater      int64
	HighWaterWo    int64
	DynDeadPercent float64
	HWMReduction   float64

	// Timings are the per-stage wall-clock durations of this benchmark's
	// pipeline run (Parse/Sema from the compilation, CallGraph/Liveness
	// from the RTA analysis, Lint from the flow-sensitive pass).
	Timings engine.Timings

	// LintFindings counts the flow-sensitive diagnostics of a clean run;
	// degraded rows never contribute to lint statistics.
	LintFindings int

	// TierFindings and TierLint are the precision/cost frontier: the
	// finding count and lint wall clock at each liveness tier, indexed
	// by heaplive.Precision.Rank() (paper, flow, heap). The flow slot
	// reuses the LintFindings run above, so its cost is a real
	// measurement rather than a lint-cache hit's zero; the heap slot
	// carries the same cost, because one pass computes both tiers.
	TierFindings [3]int
	TierLint     [3]time.Duration

	// Degraded marks a row whose pipeline did not complete cleanly: a
	// compile error, a contained panic, or a heap-accounting violation.
	// FailReason says why. A degraded row's measured fields are either
	// zero (the stage never ran) or best-effort salvage — exhibits flag
	// them and the summary statistics skip them.
	Degraded   bool
	FailReason string
}

// Collect runs analysis and instrumented execution for one benchmark.
func Collect(b *bench.Benchmark) (*BenchmarkResult, error) {
	return CollectIn(engine.NewSession(engine.Config{}), b)
}

// CollectIn is Collect against a shared engine session: the benchmark's
// frontend compile is cached, so a subsequent ablation sweep (or repeated
// collection) reuses the same Compilation.
func CollectIn(s *engine.Session, b *bench.Benchmark) (*BenchmarkResult, error) {
	return CollectInContext(context.Background(), s, b)
}

// CollectInContext is CollectIn under a context: cancellation or deadline
// expiry aborts the benchmark's pipeline between work items and is
// reported as the returned error.
func CollectInContext(ctx context.Context, s *engine.Session, b *bench.Benchmark) (*BenchmarkResult, error) {
	c, err := b.CompileContext(ctx, s)
	if err != nil {
		return nil, err
	}
	res, timings, err := c.AnalyzeTimedContext(ctx, deadmember.Options{CallGraph: callgraph.RTA})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	r := &BenchmarkResult{
		Name:        b.Name,
		Description: b.Description,
		Paper:       b.Paper,
		LOC:         c.FileSet.TotalCodeLines(),
		Timings:     timings,
	}
	if c.Degraded() || res.Degraded() {
		r.Degraded = true
		fs := append(append([]*failure.Failure{}, c.Failures...), res.Failures...)
		if len(fs) > 0 {
			r.FailReason = fs[0].Error()
		}
	}
	st := res.Stats()
	r.Classes = st.Classes
	r.UsedClasses = st.UsedClasses
	r.Members = st.Members
	r.DeadMembers = st.DeadMembers
	r.DeadPercent = st.DeadPercent()

	// Flow-sensitive pass, reusing the analysis just computed. Rows that
	// are already degraded are skipped: their findings would be partial,
	// and the lint statistics only count clean rows (same contract as
	// the dynamic measurements).
	if !r.Degraded {
		lres, lintTime, err := c.LintAnalyzed(ctx, res, lint.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		r.Timings.Lint = lintTime
		if lres.Degraded() {
			r.Degraded = true
			r.FailReason = lres.Failures[0].Error()
		} else {
			r.LintFindings = len(lres.Findings)
			// Precision/cost frontier: the remaining tiers against the
			// same analysis. Flow and heap are one pass, which the flow
			// call just measured; the heap result comes from the lint
			// cache at zero cost, so both slots carry that pass's wall
			// clock. The paper tier runs and is timed on its own.
			r.TierFindings[heaplive.PrecisionFlow.Rank()] = len(lres.Findings)
			r.TierLint[heaplive.PrecisionFlow.Rank()] = lintTime
			for _, p := range heaplive.Tiers() {
				if p == heaplive.PrecisionFlow {
					continue
				}
				tres, took, err := c.LintAnalyzed(ctx, res, lint.Options{Precision: p})
				if err != nil {
					return nil, fmt.Errorf("%s: %w", b.Name, err)
				}
				if tres.Degraded() {
					r.Degraded = true
					r.FailReason = tres.Failures[0].Error()
					break
				}
				if p == heaplive.PrecisionHeap {
					took = lintTime
				}
				r.TierFindings[p.Rank()] = len(tres.Findings)
				r.TierLint[p.Rank()] = took
			}
		}
	}

	prof, err := dynprof.Run(res, dynprof.Options{Context: ctx, Executor: c.NewExecutor()})
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		// The static half is intact; keep it and report the row degraded
		// rather than abandoning the whole sweep.
		r.Degraded = true
		r.FailReason = err.Error()
		return r, nil
	}
	if prof.AccountingErr != nil {
		r.Degraded = true
		r.FailReason = prof.AccountingErr.Error()
	}
	l := prof.Ledger
	r.ObjectSpace = l.TotalBytes
	r.DeadSpace = l.DeadBytes
	r.HighWater = l.HighWater
	r.HighWaterWo = l.AdjustedHighWater
	r.DynDeadPercent = l.DeadPercent()
	r.HWMReduction = l.HighWaterReductionPercent()
	return r, nil
}

// CollectAll measures the whole corpus in presentation order.
func CollectAll() ([]*BenchmarkResult, error) {
	return CollectAllIn(engine.NewSession(engine.Config{}))
}

// CollectAllIn measures the whole corpus against a shared engine session,
// compiling each benchmark at most once per session.
func CollectAllIn(s *engine.Session) ([]*BenchmarkResult, error) {
	return CollectAllInContext(context.Background(), s)
}

// CollectAllInContext measures the whole corpus under a context. One
// benchmark failing does not abandon the sweep: the failure becomes a
// degraded stub row (zero measurements, FailReason set) and collection
// continues with the next benchmark. Only cancellation aborts the sweep,
// reported as the returned error.
func CollectAllInContext(ctx context.Context, s *engine.Session) ([]*BenchmarkResult, error) {
	var out []*BenchmarkResult
	for _, b := range bench.All() {
		r, err := CollectInContext(ctx, s, b)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			r = &BenchmarkResult{
				Name:        b.Name,
				Description: b.Description,
				Paper:       b.Paper,
				Degraded:    true,
				FailReason:  err.Error(),
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// AnyDegraded reports whether any collected row is degraded; callers use
// it to choose a nonzero exit code while still rendering what survived.
func AnyDegraded(results []*BenchmarkResult) bool {
	for _, r := range results {
		if r.Degraded {
			return true
		}
	}
	return false
}

// DegradedNote renders a one-line-per-benchmark account of the degraded
// rows, or "" when the sweep was clean.
func DegradedNote(results []*BenchmarkResult) string {
	var b strings.Builder
	for _, r := range results {
		if r.Degraded {
			fmt.Fprintf(&b, "DEGRADED %s: %s\n", r.Name, r.FailReason)
		}
	}
	return b.String()
}

// TimingsTable renders the per-benchmark, per-stage wall-clock durations
// recorded while collecting results, plus the session cache counters —
// the observability hook for the engine's compile-once and cached
// stages (run paperbench -timings, or deadmem -verbose, to see it).
func TimingsTable(results []*BenchmarkResult, stats engine.Stats) string {
	var b strings.Builder
	b.WriteString("Per-stage wall-clock timings (one RTA analysis + lint per benchmark)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %12s %12s %12s\n",
		"benchmark", "parse", "sema", "callgraph", "liveness", "lint", "total")
	b.WriteString(strings.Repeat("-", 89) + "\n")
	var sum engine.Timings
	lintFindings, lintRows := 0, 0
	for _, r := range results {
		t := r.Timings
		sum.Add(t)
		graph, live := t.CallGraph.String(), t.Liveness.String()
		if t.CallGraphCached {
			graph = "cached"
		}
		if t.LivenessCached {
			live = "cached"
		}
		fmt.Fprintf(&b, "%-10s %12v %12v %12s %12s %12v %12v\n",
			r.Name, t.Parse, t.Sema, graph, live, t.Lint, t.Total())
		if !r.Degraded {
			lintFindings += r.LintFindings
			lintRows++
		}
	}
	fmt.Fprintf(&b, "%-10s %12v %12v %12v %12v %12v %12v\n",
		"total", sum.Parse, sum.Sema, sum.CallGraph, sum.Liveness, sum.Lint, sum.Total())
	fmt.Fprintf(&b, "\nlint: %d finding(s) across %d clean benchmark(s); degraded rows excluded\n",
		lintFindings, lintRows)
	fmt.Fprintf(&b, "session: %d frontend compile(s), %d cache hit(s)\n",
		stats.Compiles, stats.Hits)
	return b.String()
}

// PrecisionTable renders the precision/cost frontier the original paper
// never measured: per-benchmark lint findings and wall clock at each
// liveness tier — paper (flow-insensitive write-only members only),
// flow (length-one dead stores, the default), and heap (access-graph
// chained paths) — plus the extra findings each step up buys. Findings
// are cumulative (paper <= flow <= heap by construction), so the +flow
// and +heap columns are never negative. Flow and heap come from one
// lint pass, so their lint columns both show that pass's wall clock.
// Degraded rows are excluded.
func PrecisionTable(results []*BenchmarkResult) string {
	var b strings.Builder
	b.WriteString("Precision/cost frontier: lint findings and wall clock per liveness tier (flow and heap share one pass and its wall clock)\n")
	b.WriteString("(findings are cumulative: paper <= flow <= heap; + columns are the extra findings each tier adds)\n")
	fmt.Fprintf(&b, "%-10s %7s %12s %7s %12s %7s %12s %7s %7s\n",
		"benchmark", "paper", "lint", "flow", "lint", "heap", "lint", "+flow", "+heap")
	b.WriteString(strings.Repeat("-", 92) + "\n")
	var sumF [3]int
	var sumT [3]time.Duration
	for _, r := range results {
		if r.Degraded {
			fmt.Fprintf(&b, "%-10s [degraded; excluded]\n", r.Name)
			continue
		}
		f, t := r.TierFindings, r.TierLint
		fmt.Fprintf(&b, "%-10s %7d %12v %7d %12v %7d %12v %7d %7d\n",
			r.Name, f[0], t[0], f[1], t[1], f[2], t[2], f[1]-f[0], f[2]-f[1])
		for i := range f {
			sumF[i] += f[i]
			sumT[i] += t[i]
		}
	}
	fmt.Fprintf(&b, "%-10s %7d %12v %7d %12v %7d %12v %7d %7d\n",
		"total", sumF[0], sumT[0], sumF[1], sumT[1], sumF[2], sumT[2],
		sumF[1]-sumF[0], sumF[2]-sumF[1])
	return b.String()
}

// Table1 renders the benchmark characteristics table (paper Table 1),
// with the paper's values alongside ours.
func Table1(results []*BenchmarkResult) string {
	var b strings.Builder
	b.WriteString("Table 1: Benchmark programs (measured | paper)\n")
	b.WriteString("benchmark   description                                        LOC          classes(used)       members\n")
	b.WriteString(strings.Repeat("-", 110) + "\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-11s %-48s %6d|%6d  %4d(%4d)|%4d(%4d)  %5d|%5d%s\n",
			r.Name, truncate(r.Description, 48),
			r.LOC, r.Paper.LOC,
			r.Classes, r.UsedClasses, r.Paper.Classes, r.Paper.UsedClasses,
			r.Members, r.Paper.Members, degradedMark(r))
	}
	return b.String()
}

func degradedMark(r *BenchmarkResult) string {
	if r.Degraded {
		return "  [degraded]"
	}
	return ""
}

// Figure3 renders the static dead-member percentages as a bar chart
// (paper Figure 3).
func Figure3(results []*BenchmarkResult) string {
	var b strings.Builder
	b.WriteString("Figure 3: Percentage of dead data members in used classes\n")
	b.WriteString("(#### measured, caret marks the paper-calibrated target)\n\n")
	const scale = 2.0 // columns per percent
	for _, r := range results {
		bar := strings.Repeat("#", int(r.DeadPercent*scale+0.5))
		fmt.Fprintf(&b, "%-10s |%-60s %5.1f%%  (dead %d of %d)%s\n",
			r.Name, bar, r.DeadPercent, r.DeadMembers, r.Members, degradedMark(r))
		caret := int(r.Paper.DeadPercent*scale + 0.5)
		if caret > 0 {
			fmt.Fprintf(&b, "%-10s |%s^ %.1f%% target\n", "", strings.Repeat(" ", caret), r.Paper.DeadPercent)
		}
	}
	return b.String()
}

// Table2 renders the dynamic execution characteristics (paper Table 2).
func Table2(results []*BenchmarkResult) string {
	var b strings.Builder
	b.WriteString("Table 2: Execution characteristics, bytes (measured; paper values in parentheses)\n")
	fmt.Fprintf(&b, "%-10s %22s %22s %22s %26s\n",
		"benchmark", "object space", "dead member space", "high water mark", "HWM w/o dead members")
	b.WriteString(strings.Repeat("-", 108) + "\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s %10d (%9d) %10d (%9d) %10d (%9d) %12d (%9d)%s\n",
			r.Name,
			r.ObjectSpace, r.Paper.ObjectSpace,
			r.DeadSpace, r.Paper.DeadSpace,
			r.HighWater, r.Paper.HighWater,
			r.HighWaterWo, r.Paper.HighWaterWo,
			approxMark(r.Paper.Approx)+degradedMark(r))
	}
	return b.String()
}

func approxMark(approx bool) string {
	if approx {
		return " ~"
	}
	return ""
}

// Figure4 renders the dynamic percentages as paired bars (paper Figure 4):
// the light bar (=) is the percentage of object space occupied by dead
// members; the dark bar (#) is the high-water-mark reduction.
func Figure4(results []*BenchmarkResult) string {
	var b strings.Builder
	b.WriteString("Figure 4: Percentage of object space occupied by dead data members\n")
	b.WriteString("(==== dead share of all object bytes, #### reduction of the high water mark)\n\n")
	const scale = 4.0
	for _, r := range results {
		light := strings.Repeat("=", int(r.DynDeadPercent*scale+0.5))
		dark := strings.Repeat("#", int(r.HWMReduction*scale+0.5))
		fmt.Fprintf(&b, "%-10s |%-50s %5.2f%%\n", r.Name, light, r.DynDeadPercent)
		fmt.Fprintf(&b, "%-10s |%-50s %5.2f%%\n", "", dark, r.HWMReduction)
	}
	return b.String()
}

// Summary renders the paper's headline numbers next to ours.
type SummaryStats struct {
	AvgDeadPercent float64 // over the nine non-trivial benchmarks
	MaxDeadPercent float64
	AvgDynPercent  float64
	MaxDynPercent  float64
	AvgHWMPercent  float64
}

// Summarize computes the headline statistics the paper's abstract quotes.
func Summarize(results []*BenchmarkResult) SummaryStats {
	var s SummaryStats
	n := 0
	for _, r := range results {
		if r.Name == "richards" || r.Name == "deltablue" || r.Degraded {
			continue
		}
		n++
		s.AvgDeadPercent += r.DeadPercent
		s.AvgDynPercent += r.DynDeadPercent
		s.AvgHWMPercent += r.HWMReduction
		if r.DeadPercent > s.MaxDeadPercent {
			s.MaxDeadPercent = r.DeadPercent
		}
		if r.DynDeadPercent > s.MaxDynPercent {
			s.MaxDynPercent = r.DynDeadPercent
		}
	}
	if n > 0 {
		s.AvgDeadPercent /= float64(n)
		s.AvgDynPercent /= float64(n)
		s.AvgHWMPercent /= float64(n)
	}
	return s
}

// StaticDynamicCorrelation computes the Pearson correlation between the
// static dead-member percentage (Figure 3) and the dynamic dead-space
// percentage (Figure 4) over the non-trivial benchmarks. The paper's §4.3
// observes that there is "no strong correlation" between the two —
// classes with many dead members may be instantiated rarely.
func StaticDynamicCorrelation(results []*BenchmarkResult) float64 {
	var xs, ys []float64
	for _, r := range results {
		if r.Name == "richards" || r.Name == "deltablue" || r.Degraded {
			continue
		}
		xs = append(xs, r.DeadPercent)
		ys = append(ys, r.DynDeadPercent)
	}
	return pearson(xs, ys)
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Summary renders Summarize against the paper's abstract.
func Summary(results []*BenchmarkResult) string {
	s := Summarize(results)
	var b strings.Builder
	b.WriteString("Headline numbers (nine non-trivial benchmarks)        measured   paper\n")
	b.WriteString(strings.Repeat("-", 72) + "\n")
	fmt.Fprintf(&b, "dead data members, average                             %6.1f%%   12.5%%\n", s.AvgDeadPercent)
	fmt.Fprintf(&b, "dead data members, maximum                             %6.1f%%   27.3%%\n", s.MaxDeadPercent)
	fmt.Fprintf(&b, "object space occupied by dead members, average         %6.1f%%    4.4%%\n", s.AvgDynPercent)
	fmt.Fprintf(&b, "object space occupied by dead members, maximum         %6.1f%%   11.6%%\n", s.MaxDynPercent)
	fmt.Fprintf(&b, "high water mark reduction, average                     %6.1f%%    4.9%%\n", s.AvgHWMPercent)
	fmt.Fprintf(&b, "\nstatic vs dynamic dead%% correlation: %+.2f — the paper's §4.3 notes\n",
		StaticDynamicCorrelation(results))
	b.WriteString("\"no strong correlation\": classes with dead members are often\n")
	b.WriteString("instantiated infrequently.\n")
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
