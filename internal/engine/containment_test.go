package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/engine"
	"deadmembers/internal/types"
)

// Three self-contained files: main lives in fileA; fileB and fileC are
// independent, so crashing fileB's parse must leave Alpha's and Gamma's
// classifications byte-identical to a compile without fileB.
const (
	fileA = `class Alpha { public: int usedA; int deadA; int getA() { return usedA; } };
int main() { Alpha a; return a.getA(); }
`
	fileB = `class Beta { public: int usedB; int deadB; int getB() { return usedB; } };
int bee() { Beta b; return b.getB(); }
`
	fileC = `class Gamma { public: int usedC; int deadC; int getC() { return usedC; } };
int gam() { Gamma g; return g.getC(); }
`
)

func srcABC() []engine.Source {
	return []engine.Source{
		{Name: "a.mcc", Text: fileA},
		{Name: "b.mcc", Text: fileB},
		{Name: "c.mcc", Text: fileC},
	}
}

var rta = deadmember.Options{CallGraph: callgraph.RTA}

// TestParseWorkerPanicSalvage injects a panic into the parse of b.mcc
// and asserts: the run completes, the panicking file is reported as a
// structured diagnostic, and the analysis of every other file is
// byte-identical to a clean compile that never saw b.mcc.
func TestParseWorkerPanicSalvage(t *testing.T) {
	cfg := engine.Config{ParseFault: func(name string) {
		if name == "b.mcc" {
			panic("injected parse fault")
		}
	}}
	faulty := engine.Compile(cfg, srcABC()...)
	if err := faulty.Err(); err != nil {
		t.Fatalf("salvaged compile reports source errors: %v", err)
	}
	if !faulty.Degraded() || len(faulty.Failures) != 1 {
		t.Fatalf("failures = %v, want exactly one", faulty.Failures)
	}
	f := faulty.Failures[0]
	if f.Stage != "parse" || f.Unit != "b.mcc" || !strings.Contains(f.Value, "injected parse fault") {
		t.Fatalf("failure = %+v", f)
	}
	if f.Stack == "" {
		t.Fatal("failure is missing a stack digest")
	}
	if !strings.Contains(f.Error(), "b.mcc") || strings.Contains(f.Error(), "\n") {
		t.Fatalf("Error() must be a one-line diagnostic naming the file, got %q", f.Error())
	}

	clean := engine.Compile(engine.Config{},
		engine.Source{Name: "a.mcc", Text: fileA},
		engine.Source{Name: "c.mcc", Text: fileC})
	if err := clean.Err(); err != nil {
		t.Fatalf("clean compile failed: %v", err)
	}
	got := renderResult(faulty.Analyze(rta))
	want := renderResult(clean.Analyze(rta))
	if got != want {
		t.Fatalf("salvaged analysis differs from clean run:\n got:\n%s\n want:\n%s", got, want)
	}
}

// TestLivenessShardPanicSalvage injects a panic into the liveness
// processing of Alpha::getA through the engine configuration and asserts
// the run completes with a structured failure while every other member's
// classification matches a clean run.
func TestLivenessShardPanicSalvage(t *testing.T) {
	srcs := srcABC()
	clean := engine.Compile(engine.Config{}, srcs...).Analyze(rta)

	cfg := engine.Config{FuncFault: func(f *types.Func) {
		if f.QualifiedName() == "Alpha::getA" {
			panic("injected liveness fault")
		}
	}}
	comp := engine.Compile(cfg, srcs...)
	res := comp.Analyze(rta)
	if len(res.Failures) != 1 || res.Failures[0].Stage != "liveness" || res.Failures[0].Unit != "Alpha::getA" {
		t.Fatalf("failures = %v, want one liveness failure for Alpha::getA", res.Failures)
	}
	usedA := res.Program.ClassByName["Alpha"].FieldByName("usedA")
	if res.MarkOf(usedA).Live {
		t.Error("Alpha::usedA still live although its only reader faulted")
	}
	for _, c := range res.Program.Classes {
		for _, fld := range c.Fields {
			if fld.QualifiedName() == "Alpha::usedA" {
				continue
			}
			cc := clean.Program.ClassByName[c.Name]
			cf := cc.FieldByName(fld.Name)
			got, want := res.MarkOf(fld), clean.MarkOf(cf)
			if got.Live != want.Live || got.Reason != want.Reason {
				t.Errorf("%s = %+v, clean run has %+v", fld.QualifiedName(), got, want)
			}
		}
	}
}

// TestProfileDeadline: a cancelled context aborts a long Profile run
// within its deadline (polled at the interpreter's step boundary).
func TestProfileDeadline(t *testing.T) {
	comp := engine.Compile(engine.Config{}, engine.Source{Name: "spin.mcc", Text: `
int main() { int n = 0; while (true) { n = n + 1; } return n; }
`})
	if err := comp.Err(); err != nil {
		t.Fatalf("compile failed: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := comp.ProfileContext(ctx, rta, dynprof.Options{})
	if err == nil {
		t.Fatal("expected the deadline to abort the run")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run took %v to honor a 50ms deadline", elapsed)
	}
}

// TestCompileContextCancelled: an already-cancelled context aborts the
// frontend between work items, and Err reports the cancellation.
func TestCompileContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := engine.CompileContext(ctx, engine.Config{}, srcABC()...)
	if c.CancelErr() == nil || !errors.Is(c.Err(), context.Canceled) {
		t.Fatalf("CancelErr = %v, Err = %v, want context.Canceled", c.CancelErr(), c.Err())
	}
	if c.Program == nil || c.Hierarchy == nil {
		t.Fatal("cancelled compile must still return a well-formed (empty) artifact")
	}
}

// TestSessionDoesNotCachePoisonedCompiles: cancelled and degraded
// artifacts are handed back but never cached, so the next request for the
// same content gets a fresh attempt.
func TestSessionDoesNotCachePoisonedCompiles(t *testing.T) {
	// Cancelled compiles are not cached.
	s := engine.NewSession(engine.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c := s.CompileContext(ctx, srcABC()...); c.CancelErr() == nil {
		t.Fatal("expected a cancelled compile")
	}
	fresh := s.Compile(srcABC()...)
	if fresh.CancelErr() != nil || fresh.Err() != nil {
		t.Fatalf("recompile after cancellation failed: %v", fresh.Err())
	}
	if st := s.Stats(); st.Hits != 0 || st.Compiles != 2 {
		t.Fatalf("stats = %+v, want 2 compiles and no hits", st)
	}

	// Degraded compiles are not cached either.
	s2 := engine.NewSession(engine.Config{ParseFault: func(name string) {
		if name == "b.mcc" {
			panic("injected parse fault")
		}
	}})
	if c := s2.Compile(srcABC()...); !c.Degraded() {
		t.Fatal("expected a degraded compile")
	}
	s2.Compile(srcABC()...)
	if st := s2.Stats(); st.Hits != 0 || st.Compiles != 2 {
		t.Fatalf("stats = %+v, want 2 compiles and no hits (degraded never cached)", st)
	}
}
