package bench

import (
	"context"
	"math"
	"sort"
	"sync"
	"testing"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/engine"
)

// corpusRun caches one analysis+profile per benchmark across tests.
type corpusRun struct {
	bench   *Benchmark
	res     *deadmember.Result
	profile *dynprof.Profile
	loc     int
}

var (
	corpusOnce sync.Once
	corpusRuns []*corpusRun
	corpusErr  error
)

func corpus(t *testing.T) []*corpusRun {
	t.Helper()
	corpusOnce.Do(func() {
		session := engine.NewSession(engine.Config{}, engine.Limits{})
		for _, b := range All() {
			c, err := b.Compile(context.Background(), session)
			if err != nil {
				corpusErr = err
				return
			}
			res := c.Analyze(deadmember.Options{CallGraph: callgraph.RTA})
			prof, err := dynprof.Run(res, dynprof.Options{})
			if err != nil {
				corpusErr = err
				return
			}
			corpusRuns = append(corpusRuns, &corpusRun{
				bench: b, res: res, profile: prof, loc: c.FileSet.TotalCodeLines(),
			})
		}
	})
	if corpusErr != nil {
		t.Fatalf("corpus setup failed: %v", corpusErr)
	}
	return corpusRuns
}

func specFor(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

func TestCorpusHasElevenBenchmarks(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Fatalf("corpus has %d benchmarks, want 11 (paper Table 1)", len(names))
	}
	want := []string{"jikes", "idl", "npic", "lcom", "taldict", "ixx", "simulate", "sched", "hotwire", "deltablue", "richards"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("benchmark %d = %s, want %s", i, names[i], n)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("richards")
	if err != nil || b.Name != "richards" {
		t.Fatalf("ByName(richards) = %v, %v", b, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	for _, s := range specs {
		a, _ := Generate(s)
		b, _ := Generate(s)
		if a != b {
			t.Fatalf("%s: generation is not deterministic", s.Name)
		}
	}
}

func TestCorpusExecutesCleanly(t *testing.T) {
	for _, cr := range corpus(t) {
		if cr.profile.Exec.ExitCode != 0 {
			t.Errorf("%s: exit code %d, want 0 (output %q)",
				cr.bench.Name, cr.profile.Exec.ExitCode, cr.profile.Exec.Output)
		}
		// Generated drivers free everything; the hand-written classics
		// leak like their originals (the paper notes benchmarks that
		// never deallocate, giving HWM == total object space).
		if _, generated := specFor(cr.bench.Name); generated && cr.profile.Ledger.LiveBytes != 0 {
			t.Errorf("%s: %d object bytes leaked (not destroyed by end of run)",
				cr.bench.Name, cr.profile.Ledger.LiveBytes)
		}
	}
}

// TestGroundTruth cross-checks the analysis against the generator's
// planted dead set: the analysis must find exactly the members the
// generator made dead — no more (soundness of our liveness marking on
// this corpus) and no less (precision).
func TestGroundTruth(t *testing.T) {
	for _, cr := range corpus(t) {
		got := map[string]bool{}
		for _, f := range cr.res.DeadMembers() {
			got[f.QualifiedName()] = true
		}
		want := cr.bench.GroundTruth
		if want == nil {
			if len(got) != 0 {
				t.Errorf("%s: hand-written benchmark should have zero dead members, got %v",
					cr.bench.Name, keysOf(got))
			}
			continue
		}
		for qn := range want {
			if !got[qn] {
				t.Errorf("%s: generator planted dead member %s but analysis marked it live", cr.bench.Name, qn)
			}
		}
		for qn := range got {
			if !want[qn] {
				t.Errorf("%s: analysis reports %s dead but the generator did not plant it", cr.bench.Name, qn)
			}
		}
	}
}

func keysOf(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestStaticCalibration checks Figure 3's shape: each benchmark's dead
// percentage lands on its calibration target.
func TestStaticCalibration(t *testing.T) {
	for _, cr := range corpus(t) {
		spec, generated := specFor(cr.bench.Name)
		target := cr.bench.Paper.DeadPercent
		_ = spec
		got := cr.res.Stats().DeadPercent()
		tol := 1.0
		if !generated {
			tol = 0.001 // hand-written: exactly zero
		}
		if math.Abs(got-target) > tol {
			t.Errorf("%s: static dead%% = %.2f, want %.2f ± %.1f", cr.bench.Name, got, target, tol)
		}
	}
}

// TestStaticAverages checks the paper's headline static numbers: the nine
// non-trivial benchmarks average 12.5% dead members with maximum 27.3%.
func TestStaticAverages(t *testing.T) {
	var sum, maxPct float64
	n := 0
	for _, cr := range corpus(t) {
		if cr.bench.Name == "richards" || cr.bench.Name == "deltablue" {
			continue
		}
		p := cr.res.Stats().DeadPercent()
		sum += p
		if p > maxPct {
			maxPct = p
		}
		n++
	}
	avg := sum / float64(n)
	if math.Abs(avg-12.5) > 1.0 {
		t.Errorf("average dead%% over nine non-trivial benchmarks = %.2f, paper reports 12.5", avg)
	}
	if math.Abs(maxPct-27.3) > 1.0 {
		t.Errorf("max dead%% = %.2f, paper reports 27.3 (taldict)", maxPct)
	}
}

// TestDynamicCalibration checks Figure 4's shape: per-benchmark dead
// object-space percentages land on their targets.
func TestDynamicCalibration(t *testing.T) {
	for _, cr := range corpus(t) {
		spec, generated := specFor(cr.bench.Name)
		if !generated {
			if cr.profile.Ledger.DeadBytes != 0 {
				t.Errorf("%s: dead bytes = %d, want 0", cr.bench.Name, cr.profile.Ledger.DeadBytes)
			}
			continue
		}
		got := cr.profile.Ledger.DeadPercent()
		tol := math.Max(0.6, 0.15*spec.DynDeadPercent)
		if math.Abs(got-spec.DynDeadPercent) > tol {
			t.Errorf("%s: dynamic dead%% = %.2f, want %.2f ± %.2f",
				cr.bench.Name, got, spec.DynDeadPercent, tol)
		}
	}
}

// TestDynamicMaximum checks the paper's headline dynamic number: up to
// 11.6% of object space (sched) is occupied by dead members.
func TestDynamicMaximum(t *testing.T) {
	var maxPct float64
	var maxName string
	for _, cr := range corpus(t) {
		if p := cr.profile.Ledger.DeadPercent(); p > maxPct {
			maxPct = p
			maxName = cr.bench.Name
		}
	}
	if maxName != "sched" {
		t.Errorf("max dynamic dead%% is %s (%.2f), paper's max is sched", maxName, maxPct)
	}
	if math.Abs(maxPct-11.6) > 0.5 {
		t.Errorf("max dynamic dead%% = %.2f, paper reports 11.6", maxPct)
	}
}

// TestArenaHighWaterMark checks the paper's observation that arena-style
// benchmarks (heap-allocate and never free until the end) have a high
// water mark equal to total object space.
func TestArenaHighWaterMark(t *testing.T) {
	for _, cr := range corpus(t) {
		spec, generated := specFor(cr.bench.Name)
		if !generated {
			continue
		}
		l := cr.profile.Ledger
		if spec.RetainMod == 1 {
			if l.HighWater != l.TotalBytes {
				t.Errorf("%s (arena): HWM %d != total %d", cr.bench.Name, l.HighWater, l.TotalBytes)
			}
		} else {
			if l.HighWater >= l.TotalBytes {
				t.Errorf("%s (churn, retain 1/%d): HWM %d should be below total %d",
					cr.bench.Name, spec.RetainMod, l.HighWater, l.TotalBytes)
			}
		}
		if l.AdjustedHighWater > l.HighWater {
			t.Errorf("%s: adjusted HWM %d exceeds HWM %d", cr.bench.Name, l.AdjustedHighWater, l.HighWater)
		}
	}
}

// TestLibraryStyleBenchmarksLeadStatic checks the paper's observation that
// the benchmarks built on general class libraries (taldict, simulate,
// hotwire) have the highest static dead percentages.
func TestLibraryStyleBenchmarksLeadStatic(t *testing.T) {
	pct := map[string]float64{}
	for _, cr := range corpus(t) {
		pct[cr.bench.Name] = cr.res.Stats().DeadPercent()
	}
	libUsers := []string{"taldict", "simulate", "hotwire"}
	for _, lib := range libUsers {
		for name, p := range pct {
			if name == "taldict" || name == "simulate" || name == "hotwire" {
				continue
			}
			if pct[lib] <= p {
				t.Errorf("library-user %s (%.1f%%) should exceed %s (%.1f%%)", lib, pct[lib], name, p)
			}
		}
	}
}

// TestTableOneShape checks that the corpus matches the class/member
// counts it was calibrated to.
func TestTableOneShape(t *testing.T) {
	for _, cr := range corpus(t) {
		spec, generated := specFor(cr.bench.Name)
		if !generated {
			continue
		}
		s := cr.res.Stats()
		if s.Classes != spec.Classes {
			t.Errorf("%s: %d classes, want %d", cr.bench.Name, s.Classes, spec.Classes)
		}
		// The Node base is used in addition to the spec's used classes.
		if s.UsedClasses != spec.UsedClasses+1 {
			t.Errorf("%s: %d used classes, want %d", cr.bench.Name, s.UsedClasses, spec.UsedClasses+1)
		}
		if math.Abs(float64(s.Members-spec.Members)) > 6 {
			t.Errorf("%s: %d members, want ≈%d", cr.bench.Name, s.Members, spec.Members)
		}
		if cr.loc == 0 {
			t.Errorf("%s: zero generated LOC", cr.bench.Name)
		}
	}
}

// TestLedgerMatchesLayout cross-checks the two byte-accounting paths: the
// ledger's per-class totals must equal allocation count times the
// hierarchy layout size, and per-class dead bytes must equal count times
// the layout's dead-byte computation.
func TestLedgerMatchesLayout(t *testing.T) {
	for _, cr := range corpus(t) {
		h := cr.res.Hierarchy
		for _, st := range cr.profile.Ledger.ByClass() {
			lay := h.LayoutOf(st.Class)
			if st.Bytes != st.Count*int64(lay.Size) {
				t.Errorf("%s/%s: ledger bytes %d != %d objects × %d layout size",
					cr.bench.Name, st.Class.Name, st.Bytes, st.Count, lay.Size)
			}
			wantDead := st.Count * int64(lay.DeadBytes(cr.res.IsDead))
			if st.Dead != wantDead {
				t.Errorf("%s/%s: ledger dead bytes %d != %d expected from layout",
					cr.bench.Name, st.Class.Name, st.Dead, wantDead)
			}
		}
	}
}

// TestRichardsResult pins the classic Richards benchmark outcome.
func TestRichardsResult(t *testing.T) {
	for _, cr := range corpus(t) {
		if cr.bench.Name != "richards" {
			continue
		}
		if cr.profile.Exec.Output != "queue=2322 hold=928\n" {
			t.Errorf("richards output = %q, want the classic queue=2322 hold=928", cr.profile.Exec.Output)
		}
	}
}

// TestDeltablueResult pins the DeltaBlue solver outcome.
func TestDeltablueResult(t *testing.T) {
	for _, cr := range corpus(t) {
		if cr.bench.Name != "deltablue" {
			continue
		}
		if cr.profile.Exec.Output != "deltablue failures=0\n" {
			t.Errorf("deltablue output = %q, want zero failures", cr.profile.Exec.Output)
		}
	}
}
