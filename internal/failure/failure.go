// Package failure implements the panic-containment layer of the analysis
// pipeline: a recover boundary that converts a panicking stage or work
// item into a structured, reportable Failure instead of a process abort.
//
// The pipeline wraps every per-unit work item (each file's parse, each
// function's liveness and lint pass) and every whole-program stage
// (sema, profile, strip) in Catch. When a unit fails, its siblings' results are salvaged and the
// run continues in a degraded-but-diagnosed state; the Failure records
// where the fault happened (stage + unit), what was thrown, and a stack
// digest stable enough to deduplicate crash reports.
package failure

import (
	"crypto/sha256"
	"fmt"
	"runtime/debug"
	"strings"
)

// Failure is one contained panic: a structured internal diagnostic.
type Failure struct {
	// Stage names the pipeline stage that faulted: "parse", "sema",
	// "callgraph", "liveness", "profile", "strip", "interp", ...
	Stage string

	// Unit identifies the work item within the stage: a file name, a
	// function's qualified name, or "program" for whole-program stages.
	Unit string

	// Value is the recovered panic value, formatted.
	Value string

	// Stack is a compact digest of the panic stack: an 8-byte hash of the
	// frame list plus the innermost non-runtime frame, enough to tell two
	// distinct crashes apart without storing full traces.
	Stack string
}

// Error renders the failure as a one-line internal diagnostic.
func (f *Failure) Error() string {
	return fmt.Sprintf("internal failure in %s of %s: %s [%s]", f.Stage, f.Unit, f.Value, f.Stack)
}

// New builds a Failure for a value obtained from recover(), capturing the
// current stack digest. Call it from inside a deferred recover handler.
func New(stage, unit string, recovered interface{}) *Failure {
	return &Failure{
		Stage: stage,
		Unit:  unit,
		Value: fmt.Sprint(recovered),
		Stack: Digest(debug.Stack()),
	}
}

// Catch runs fn, converting a panic into a Failure. It returns nil when
// fn completes normally. Panics are not re-raised: the caller decides how
// to degrade.
func Catch(stage, unit string, fn func()) (f *Failure) {
	defer func() {
		if r := recover(); r != nil {
			f = New(stage, unit, r)
		}
	}()
	fn()
	return nil
}

// Digest compresses a debug.Stack() trace into "hhhhhhhh frame": a short
// content hash over the frame names (offsets, addresses, and anonymous
// `.funcN` numbering stripped, so the digest is stable across runs and
// inlining decisions) plus the innermost frame that is not part of the
// runtime or of this package.
func Digest(stack []byte) string {
	frames := frameNames(stack)
	h := sha256.Sum256([]byte(strings.Join(frames, "\n")))
	top := "unknown"
	for _, fr := range frames {
		if strings.HasPrefix(fr, "runtime.") || strings.HasPrefix(fr, "runtime/") {
			continue
		}
		if strings.Contains(fr, "/internal/failure.") {
			continue
		}
		top = fr
		break
	}
	return fmt.Sprintf("%x %s", h[:4], top)
}

// frameNames extracts the function-name lines of a debug.Stack() dump,
// dropping the goroutine header, source locations, argument lists, and
// the compiler's anonymous-function numbering (inlining can duplicate a
// closure into `.func2` and `.func3` clones at different call sites).
func frameNames(stack []byte) []string {
	var out []string
	for _, line := range strings.Split(string(stack), "\n") {
		if line == "" || strings.HasPrefix(line, "goroutine ") ||
			strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "panic(") {
			continue
		}
		if i := strings.LastIndex(line, "("); i > 0 {
			line = line[:i]
		}
		out = append(out, stripFuncNumbers(line))
	}
	return out
}

// stripFuncNumbers drops `funcN` path segments from a symbol name.
func stripFuncNumbers(sym string) string {
	segs := strings.Split(sym, ".")
	kept := segs[:0]
	for _, s := range segs {
		if isFuncN(s) {
			continue
		}
		kept = append(kept, s)
	}
	return strings.Join(kept, ".")
}

func isFuncN(s string) bool {
	if !strings.HasPrefix(s, "func") || len(s) == len("func") {
		return false
	}
	for _, r := range s[len("func"):] {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
