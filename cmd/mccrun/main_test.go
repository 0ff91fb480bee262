package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the mccrun goldens")

func write(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunsProgram(t *testing.T) {
	path := write(t, "hello.mcc", `
int main() { print("hello "); print(2+2*10); println(); return 3; }`)
	var out, errOut strings.Builder
	code := run([]string{path}, &out, &errOut)
	if code != 3 {
		t.Fatalf("exit = %d, want the program's return value 3 (stderr: %s)", code, errOut.String())
	}
	if out.String() != "hello 22\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestProfileFlag(t *testing.T) {
	path := write(t, "p.mcc", `
class Box { public: int keep; int waste; Box() : keep(1), waste(2) {} };
int main() {
	Box* b = new Box();
	int r = b->keep;
	delete b;
	return r;
}`)
	var out, errOut strings.Builder
	code := run([]string{"-profile", path}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	prof := errOut.String()
	for _, want := range []string{"heap profile", "objects allocated:        1", "dead data member space:   4 bytes"} {
		if !strings.Contains(prof, want) {
			t.Errorf("profile missing %q:\n%s", want, prof)
		}
	}
}

// TestMaxStepsFlag: the budget bounds plain runs as well as profiled
// ones, and the error carries the source position.
func TestMaxStepsFlag(t *testing.T) {
	path := write(t, "loop.mcc", `
int main() { int s = 0; for (int i = 0; i < 100000; i++) { s++; } return 0; }`)
	for _, mode := range [][]string{nil, {"-profile"}} {
		var out, errOut strings.Builder
		args := append(append([]string{"-max-steps", "50"}, mode...), path)
		if code := run(args, &out, &errOut); code != 1 {
			t.Fatalf("%v: step-limited run should exit 1, got %d", mode, code)
		}
		if want := "step limit exceeded (50) at " + path + ":2:"; !strings.Contains(errOut.String(), want) {
			t.Errorf("%v: stderr missing %q:\n%s", mode, want, errOut.String())
		}
	}
}

// TestRuntimeErrorReported: a runtime error names its position, in
// plain and profiled runs alike.
func TestRuntimeErrorReported(t *testing.T) {
	path := write(t, "crash.mcc", `
int main() { int* p = nullptr; return *p; }`)
	for _, mode := range [][]string{nil, {"-profile"}} {
		var out, errOut strings.Builder
		if code := run(append(mode, path), &out, &errOut); code != 1 {
			t.Fatalf("%v: runtime error should exit 1, got %d", mode, code)
		}
		if want := "mccrun: runtime error: null pointer dereference at " + path + ":2:39\n"; errOut.String() != want {
			t.Errorf("%v: stderr = %q, want %q", mode, errOut.String(), want)
		}
	}
}

func TestUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args should exit 2, got %d", code)
	}
}

func TestMissingInputExit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.mcc")
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Errorf("missing input should exit 1, got %d", code)
	}
	msg := errOut.String()
	if !strings.HasPrefix(msg, "mccrun: ") || strings.Count(strings.TrimRight(msg, "\n"), "\n") != 0 {
		t.Errorf("want a one-line mccrun diagnostic, got:\n%s", msg)
	}
	if strings.Contains(msg, "goroutine") {
		t.Errorf("diagnostic must not include a Go stack trace:\n%s", msg)
	}
}

func TestTimeoutAbortsRun(t *testing.T) {
	path := write(t, "spin.mcc", `
int main() { int n = 0; while (true) { n = n + 1; } return n; }`)
	var out, errOut strings.Builder
	start := time.Now()
	if code := run([]string{"-timeout", "50ms", path}, &out, &errOut); code != 1 {
		t.Fatalf("timed-out run should exit 1, got %d", code)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run took %v to honor a 50ms timeout", elapsed)
	}
	if !strings.Contains(errOut.String(), "deadline") {
		t.Errorf("stderr missing deadline diagnostic:\n%s", errOut.String())
	}
}

// TestExamplesMatchGoldens runs every shipped program (examples/mcc,
// the top-level testdata and every internal package's fixtures) plain,
// with -profile, and with -profile at GOMAXPROCS 4 (four liveness
// workers), and compares stdout, stderr and the exit code with goldens.
// The VM and the tree-walker share the runtime core, so these goldens,
// not the differential tests, are what notice a change in it. -update
// rewrites them.
func TestExamplesMatchGoldens(t *testing.T) {
	var paths []string
	for _, pattern := range []string{"examples/mcc/*.mcc", "testdata/*.mcc", "internal/*/testdata/*.mcc"} {
		matches, err := filepath.Glob(filepath.Join("..", "..", pattern))
		if err != nil || len(matches) == 0 {
			t.Fatalf("no programs match %s: %v", pattern, err)
		}
		paths = append(paths, matches...)
	}
	for _, path := range paths {
		stem := strings.NewReplacer("../", "", "/", "_").Replace(filepath.ToSlash(strings.TrimSuffix(path, ".mcc")))
		for _, tc := range []struct {
			golden string
			flags  []string
			procs  int // GOMAXPROCS for the run; 0 leaves it alone
		}{
			{"run", nil, 0},
			{"profile", []string{"-profile"}, 0},
			{"profile", []string{"-profile"}, 4},
		} {
			var out, errOut strings.Builder
			prev := runtime.GOMAXPROCS(tc.procs)
			code := run(append(tc.flags, path), &out, &errOut)
			runtime.GOMAXPROCS(prev)
			got := fmt.Sprintf("exit %d\n-- stdout --\n%s\n-- stderr --\n%s", code, out.String(), errOut.String())
			golden := filepath.Join("testdata", stem+"."+tc.golden+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to record it)", err)
			}
			if got != string(want) {
				t.Errorf("mccrun %s %s (procs %d) differs from its golden:\n--- got ---\n%s--- want ---\n%s",
					strings.Join(tc.flags, " "), path, tc.procs, got, want)
			}
		}
	}
}

// TestEngineFlagRejected: the VM is the only engine, so -engine is an
// unknown flag.
func TestEngineFlagRejected(t *testing.T) {
	path := write(t, "e.mcc", `int main() { return 0; }`)
	var out, errOut strings.Builder
	if code := run([]string{"-engine", "vm", path}, &out, &errOut); code != 2 {
		t.Fatalf("-engine should exit 2 as an unknown flag, got %d", code)
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined: -engine") {
		t.Errorf("stderr missing unknown-flag diagnostic:\n%s", errOut.String())
	}
}

// TestRetiredFlagsRejected: the engine sizes its own workers, so
// -parallel is an unknown flag.
func TestRetiredFlagsRejected(t *testing.T) {
	path := write(t, "e.mcc", `int main() { return 0; }`)
	for _, args := range [][]string{{"-parallel", "4"}} {
		var out, errOut strings.Builder
		if code := run(append(args, path), &out, &errOut); code != 2 {
			t.Errorf("%v should exit 2 as an unknown flag, got %d", args, code)
		}
		if !strings.Contains(errOut.String(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: stderr missing unknown-flag diagnostic:\n%s", args, errOut.String())
		}
	}
}

// TestPrecisionFlagRejected: mccrun's report is tier-invariant and it
// has no server mode to forward a tier to, so -precision is an unknown
// flag.
func TestPrecisionFlagRejected(t *testing.T) {
	path := write(t, "e.mcc", `int main() { return 0; }`)
	var out, errOut strings.Builder
	if code := run([]string{"-precision", "flow", path}, &out, &errOut); code != 2 {
		t.Fatalf("-precision should exit 2 as an unknown flag, got %d", code)
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined: -precision") {
		t.Errorf("stderr missing unknown-flag diagnostic:\n%s", errOut.String())
	}
}
