package main

import (
	"fmt"
	"strings"

	"deadmembers"
	"deadmembers/internal/bench"
)

// profile-corpus: a researcher regenerating Table 2 and Figure 4. One op
// is one instrumented pass over the 11-program paper corpus through
// Compilation.Profile with zero Options, the library's default execution;
// compiling and analysing happen in set-up. dynprof and the runtime do all
// the work: allocation-bound programs (sched, jikes, lcom: 15–30k objects
// each) run beside a compute-bound one (richards: 27 objects, 259k
// steps), so a change that speeds dispatch but slows allocation shows.

// corpusShapes are the calibrated shapes of the nine synthesized paper
// benchmarks (copied from internal/bench without their seeds): the run's
// seed re-draws each program from its shape.
var corpusShapes = []bench.Spec{
	{Name: "jikes", Classes: 268, UsedClasses: 190, Members: 1052, DeadPercent: 11.9,
		Allocations: 20000, DynDeadPercent: 6.0, RetainMod: 3, DeadHeavyClasses: 22, DeleteFlavor: true},
	{Name: "idl", Classes: 150, UsedClasses: 105, Members: 600, DeadPercent: 6.1,
		Allocations: 8000, DynDeadPercent: 2.2, RetainMod: 1, DeadHeavyClasses: 9},
	{Name: "npic", Classes: 60, UsedClasses: 48, Members: 220, DeadPercent: 5.0,
		Allocations: 5000, DynDeadPercent: 4.9, RetainMod: 5, DeadHeavyClasses: 4},
	{Name: "lcom", Classes: 72, UsedClasses: 58, Members: 300, DeadPercent: 9.8,
		Allocations: 15000, DynDeadPercent: 10.6, RetainMod: 2, DeadHeavyClasses: 8, DeleteFlavor: true},
	{Name: "taldict", Classes: 55, UsedClasses: 27, Members: 190, DeadPercent: 27.3,
		Allocations: 120, DynDeadPercent: 0.5, RetainMod: 1, DeadHeavyClasses: 14, GhostFraction: 0.9},
	{Name: "ixx", Classes: 90, UsedClasses: 63, Members: 420, DeadPercent: 7.7,
		Allocations: 9000, DynDeadPercent: 5.4, RetainMod: 2, DeadHeavyClasses: 8},
	{Name: "simulate", Classes: 45, UsedClasses: 24, Members: 170, DeadPercent: 23.1,
		Allocations: 3000, DynDeadPercent: 0.1, RetainMod: 6, DeadHeavyClasses: 10},
	{Name: "sched", Classes: 24, UsedClasses: 20, Members: 80, DeadPercent: 3.0,
		Allocations: 30000, DynDeadPercent: 11.6, RetainMod: 1, DeadHeavyClasses: 1, StructFraction: 0.8},
	{Name: "hotwire", Classes: 37, UsedClasses: 21, Members: 166, DeadPercent: 18.6,
		Allocations: 200, DynDeadPercent: 2.6, RetainMod: 1, DeadHeavyClasses: 8, GhostFraction: 0.72},
}

// classicOutputs are the published outputs of the two hand-written
// benchmarks, which stay fixed whatever the seed.
var classicOutputs = map[string]string{
	"richards":  "queue=2322 hold=928\n",
	"deltablue": "deltablue failures=0\n",
}

type corpusProgram struct {
	name   string
	srcs   []deadmembers.Source
	ground map[string]bool // nil for the hand-written benchmarks
	comp   *deadmembers.Compilation
	ref    runRecord // the warm-up op's run
}

// runRecord is what must repeat exactly from op to op.
type runRecord struct {
	output                                      string
	exit                                        int
	steps, objects, total, dead, live, hwm, adj int64
}

// corpus draws the 11 programs for seed, in the paper's order.
func corpus(seed uint64) ([]*corpusProgram, error) {
	var ps []*corpusProgram
	for i, shape := range corpusShapes {
		shape.Description = "paper-calibrated program"
		shape.Seed = mix(seed, uint64(i+1))
		text, ground := bench.Generate(shape)
		ps = append(ps, &corpusProgram{name: shape.Name, srcs: []deadmembers.Source{{Name: shape.Name + ".mcc", Text: text}}, ground: ground})
	}
	for _, name := range []string{"deltablue", "richards"} {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		ps = append(ps, &corpusProgram{name: name, srcs: b.Sources})
	}
	return ps, nil
}

// compileAndCheck compiles p (timing the frontend and call graph when
// traced) and checks the static dead set against the planted one.
func (p *corpusProgram) compileAndCheck(o *opTrace) error {
	o.begin("program", p.name)
	defer o.end()
	if o != nil {
		prog, h := splitFrontend(o, p.srcs...)
		splitAnalysis(o, prog, h, p.name, false)
	}
	comp, err := compile(o, p.srcs...)
	if err != nil {
		return err
	}
	p.comp = comp
	dead := comp.Analyze(deadmembers.Options{}).DeadMembers()
	if p.ground == nil {
		p.ground = map[string]bool{}
	}
	if len(dead) != len(p.ground) {
		return fmt.Errorf("%d dead members, the generator planted %d", len(dead), len(p.ground))
	}
	for _, f := range dead {
		if !p.ground[f.QualifiedName()] {
			return fmt.Errorf("%s reported dead but not planted", f.QualifiedName())
		}
	}
	return nil
}

// profile runs p once under instrumentation. Traced, it also times the
// liveness re-run inside Profile (public Analyze on the same
// compilation), so dynprof's share is Profile minus Analyze.
func (p *corpusProgram) profile(o *opTrace) (*deadmembers.Profile, error) {
	o.begin("program", p.name)
	defer o.end()
	o.begin("profile", p.name)
	prof, err := p.comp.Profile(deadmembers.Options{})
	o.end()
	if o != nil {
		o.beginSplit("split.analysis", p.name)
		o.begin("deadmember", p.name)
		p.comp.Analyze(deadmembers.Options{})
		o.end()
		o.end()
	}
	return prof, err
}

func record(prof *deadmembers.Profile) runRecord {
	l := prof.Ledger
	return runRecord{
		output: prof.Exec.Output, exit: prof.Exec.ExitCode, steps: prof.Exec.Steps,
		objects: l.TotalObjects, total: l.TotalBytes, dead: l.DeadBytes,
		live: l.LiveBytes, hwm: l.HighWater, adj: l.AdjustedHighWater,
	}
}

// check verifies one profile: the classic outputs for richards and
// deltablue; for generated programs exit 0, a sink= line, every byte
// freed and adjusted HWM ≤ HWM; for all, steps and ledger identical to
// the warm-up op's.
func (p *corpusProgram) check(prof *deadmembers.Profile, err error) error {
	if err != nil {
		return err
	}
	if prof.AccountingErr != nil {
		return fmt.Errorf("heap ledger: %w", prof.AccountingErr)
	}
	r := record(prof)
	if want, ok := classicOutputs[p.name]; ok {
		if r.output != want {
			return fmt.Errorf("output %q, want %q", r.output, want)
		}
	} else {
		switch {
		case r.exit != 0:
			return fmt.Errorf("exit code %d", r.exit)
		case !strings.Contains(r.output, "sink="):
			return fmt.Errorf("no sink= line in %q", r.output)
		case r.live != 0:
			return fmt.Errorf("%d object bytes never freed", r.live)
		case r.adj > r.hwm:
			return fmt.Errorf("adjusted HWM %d above HWM %d", r.adj, r.hwm)
		}
	}
	if p.ref != (runRecord{}) && r != p.ref {
		return fmt.Errorf("run differs from the warm-up op's: %+v, want %+v", r, p.ref)
	}
	return nil
}

func runProfileCorpus(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out := &outcome{}
	progs, took, err := setUp(setupRuns, func(id int) ([]*corpusProgram, error) {
		o := tr.op(id)
		o.begin("setup", "")
		defer o.end()
		ps, err := corpus(cfg.seed)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			if err := p.compileAndCheck(o); err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
		}
		for _, p := range ps {
			prof, err := p.profile(o)
			if err := p.check(prof, err); err != nil {
				return nil, fmt.Errorf("warm-up, %s: %w", p.name, err)
			}
			p.ref = record(prof)
		}
		return ps, nil
	}, func([]*corpusProgram) {})
	out.setups = took
	if err != nil {
		return nil, err
	}
	timedLoop(cfg, tr, out, func(o *opTrace) func() error {
		profs := make([]*deadmembers.Profile, len(progs))
		errs := make([]error, len(progs))
		for i, p := range progs {
			profs[i], errs[i] = p.profile(o)
		}
		return func() error {
			for i, p := range progs {
				if err := p.check(profs[i], errs[i]); err != nil {
					return fmt.Errorf("%s: %w", p.name, err)
				}
			}
			return nil
		}
	})
	if err := finishTrace(cfg, tr, out); err != nil {
		return nil, err
	}
	if tr != nil {
		var steps, objects float64
		for _, p := range progs {
			steps += float64(p.ref.steps)
			objects += float64(p.ref.objects)
			d := layer(out.spans, "profile", p.name).ms - layer(out.spans, "deadmember", p.name).ms
			out.layers["dynprof."+p.name+".ms"] = d
		}
		prof, live := layer(out.spans, "profile", ""), layer(out.spans, "deadmember", "")
		dyn := prof.ms - live.ms
		out.layers["dynprof.ms"] = dyn
		out.layers["dynprof.alloc_mb"] = prof.allocMB - live.allocMB
		if dyn > 0 {
			out.layers["dynprof.msteps_per_s"] = steps / dyn / 1e3
		}
		out.layers["interp.steps"] = steps
		out.layers["heapsim.objects"] = objects
	}
	return out, nil
}
