package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

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

func TestMaxStepsFlag(t *testing.T) {
	path := write(t, "loop.mcc", `
int main() { int s = 0; for (int i = 0; i < 100000; i++) { s++; } return 0; }`)
	var out, errOut strings.Builder
	if code := run([]string{"-max-steps", "50", "-profile", path}, &out, &errOut); code != 1 {
		t.Fatalf("step-limited run should exit 1, got %d", code)
	}
	if !strings.Contains(errOut.String(), "step limit") {
		t.Errorf("stderr missing step-limit error:\n%s", errOut.String())
	}
}

func TestRuntimeErrorReported(t *testing.T) {
	path := write(t, "crash.mcc", `
int main() { int* p = nullptr; return *p; }`)
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Fatalf("runtime error should exit 1, got %d", code)
	}
	if !strings.Contains(errOut.String(), "null pointer dereference") {
		t.Errorf("stderr missing runtime error:\n%s", errOut.String())
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

// TestExamplesMatchGoldens runs every example program plain, with
// -profile, and with -profile -parallel 4, and compares stdout, stderr
// and the exit code with goldens recorded from the tree-walking
// interpreter, the VM's reference oracle.
func TestExamplesMatchGoldens(t *testing.T) {
	paths, err := filepath.Glob("../../examples/mcc/*.mcc")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example programs found")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".mcc")
		for _, tc := range []struct {
			golden string
			flags  []string
		}{
			{"run", nil},
			{"profile", []string{"-profile"}},
			{"profile", []string{"-profile", "-parallel", "4"}},
		} {
			want, err := os.ReadFile(filepath.Join("testdata", name+"."+tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var out, errOut strings.Builder
			code := run(append(tc.flags, path), &out, &errOut)
			got := fmt.Sprintf("exit %d\n-- stdout --\n%s\n-- stderr --\n%s", code, out.String(), errOut.String())
			if got != string(want) {
				t.Errorf("mccrun %s %s differs from its golden:\n--- got ---\n%s--- want ---\n%s",
					strings.Join(tc.flags, " "), path, got, want)
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
