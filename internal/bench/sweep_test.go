package bench

import (
	"strings"
	"testing"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/engine"
	"deadmembers/internal/frontend"
	"deadmembers/internal/strip"
)

// stripApply runs the dead-member elimination transform and returns the
// transformed sources.
func stripApply(res *deadmember.Result) []frontend.Source {
	return strip.Apply(res, strip.Options{}).Sources
}

// TestRandomizedSpecSweep is a differential property test: for arbitrary
// generator configurations, the analysis must classify exactly the members
// the generator planted as dead — no false negatives (soundness of the
// liveness marking) and no false positives (precision on this program
// family). Each generated program is also executed to confirm it is a
// valid, terminating MC++ program.
func TestRandomizedSpecSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow; skipped with -short")
	}
	r := &rng{s: 0xC0FFEE}
	for i := 0; i < 24; i++ {
		classes := 10 + r.intn(60)
		used := 6 + r.intn(classes-6)
		if used > classes-1 {
			used = classes - 1
		}
		members := used*2 + r.intn(used*4)
		spec := Spec{
			Name:             "sweep",
			Description:      "randomized sweep case",
			Classes:          classes,
			UsedClasses:      used,
			Members:          members,
			DeadPercent:      float64(r.intn(30)),
			Allocations:      50 + r.intn(2000),
			DynDeadPercent:   float64(r.intn(12)),
			RetainMod:        1 + r.intn(4),
			DeadHeavyClasses: 1 + r.intn(6),
			DeleteFlavor:     r.intn(2) == 0,
			GhostFraction:    float64(r.intn(3)) * 0.3,
			Seed:             r.next(),
		}
		src, ground := Generate(spec)

		// Route through the engine, whose liveness pass runs on
		// GOMAXPROCS workers: the sweep doubles as a differential test
		// of the sharded pass against the planted ground truth.
		c := engine.Compile(engine.Config{}, frontend.Source{Name: "sweep.mcc", Text: src})
		if err := c.Err(); err != nil {
			t.Fatalf("case %d (seed %#x): generated program does not compile:\n%v", i, spec.Seed, err)
		}
		res := c.Analyze(deadmember.Options{CallGraph: callgraph.RTA})

		got := map[string]bool{}
		for _, f := range res.DeadMembers() {
			got[f.QualifiedName()] = true
		}
		for qn := range ground {
			if !got[qn] {
				t.Errorf("case %d (seed %#x): planted dead member %s reported live", i, spec.Seed, qn)
			}
		}
		for qn := range got {
			if !ground[qn] {
				t.Errorf("case %d (seed %#x): %s reported dead but not planted", i, spec.Seed, qn)
			}
		}

		prof, err := dynprof.Run(res, dynprof.Options{MaxSteps: 50_000_000})
		if err != nil {
			t.Fatalf("case %d (seed %#x): execution failed: %v", i, spec.Seed, err)
		}
		if prof.Exec.ExitCode != 0 {
			t.Errorf("case %d: exit %d", i, prof.Exec.ExitCode)
		}
		if !strings.Contains(prof.Exec.Output, "sink=") {
			t.Errorf("case %d: missing observable output", i)
		}
		if prof.Ledger.LiveBytes != 0 {
			t.Errorf("case %d: leaked %d object bytes", i, prof.Ledger.LiveBytes)
		}
		if prof.Ledger.AdjustedHighWater > prof.Ledger.HighWater {
			t.Errorf("case %d: adjusted HWM exceeds HWM", i)
		}
	}
}

// TestSweepStripRoundTrip extends the sweep with the transform: stripping
// a random generated program preserves behaviour exactly.
func TestSweepStripRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow; skipped with -short")
	}
	r := &rng{s: 0xBEEF}
	for i := 0; i < 6; i++ {
		spec := Spec{
			Name: "sweepstrip", Description: "strip sweep",
			Classes: 14 + r.intn(20), UsedClasses: 8 + r.intn(10),
			Members: 60 + r.intn(60), DeadPercent: 5 + float64(r.intn(20)),
			Allocations: 100 + r.intn(500), RetainMod: 1 + r.intn(3),
			DeadHeavyClasses: 1 + r.intn(4), DeleteFlavor: i%2 == 0,
			Seed: r.next(),
		}
		if spec.UsedClasses > spec.Classes-1 {
			spec.UsedClasses = spec.Classes - 1
		}
		src, _ := Generate(spec)
		runSweepStrip(t, i, spec, src)
	}
}

func runSweepStrip(t *testing.T, i int, spec Spec, src string) {
	t.Helper()
	fr := frontend.Compile(frontend.Source{Name: "s.mcc", Text: src})
	if err := fr.Err(); err != nil {
		t.Fatalf("case %d: %v", i, err)
	}
	res := deadmember.Analyze(fr.Program, fr.Graph, deadmember.Options{CallGraph: callgraph.RTA})
	before, err := dynprof.Run(res, dynprof.Options{})
	if err != nil {
		t.Fatalf("case %d: %v", i, err)
	}
	out := stripApply(res)
	fr2 := frontend.Compile(out...)
	if err := fr2.Err(); err != nil {
		t.Fatalf("case %d (seed %#x): stripped program does not compile:\n%v", i, spec.Seed, err)
	}
	res2 := deadmember.Analyze(fr2.Program, fr2.Graph, deadmember.Options{CallGraph: callgraph.RTA})
	after, err := dynprof.Run(res2, dynprof.Options{})
	if err != nil {
		t.Fatalf("case %d: stripped program failed: %v", i, err)
	}
	if before.Exec.Output != after.Exec.Output || before.Exec.ExitCode != after.Exec.ExitCode {
		t.Errorf("case %d (seed %#x): behaviour changed by strip", i, spec.Seed)
	}
	if len(res2.DeadMembers()) != 0 {
		t.Errorf("case %d: dead members remain after strip: %v", i, res2.DeadMembers())
	}
}
