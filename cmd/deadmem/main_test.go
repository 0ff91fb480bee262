package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `
class Gadget {
public:
	int used;
	int unused;   // dead: write-only
	Gadget() : used(1), unused(2) {}
};
int main() {
	Gadget g;
	return g.used;
}
`

func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sample.mcc")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportsDeadMembers(t *testing.T) {
	path := writeSample(t)
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Gadget::unused") {
		t.Errorf("output missing dead member:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1 dead (50.0%)") {
		t.Errorf("output missing stats line:\n%s", out.String())
	}
}

func TestVerboseListsLiveMembers(t *testing.T) {
	path := writeSample(t)
	var out, errOut strings.Builder
	if code := run([]string{"-v", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "Gadget::used") || !strings.Contains(out.String(), "read") {
		t.Errorf("verbose output missing live member with reason:\n%s", out.String())
	}
}

func TestVerbosePrintsStageTimings(t *testing.T) {
	path := writeSample(t)
	var out, errOut strings.Builder
	if code := run([]string{"-verbose", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	for _, stage := range []string{"engine stage timings", "parse", "sema", "callgraph", "liveness", "total"} {
		if !strings.Contains(s, stage) {
			t.Errorf("-verbose output missing %q stage:\n%s", stage, s)
		}
	}
}

func TestCallGraphFlag(t *testing.T) {
	path := writeSample(t)
	for _, mode := range []string{"rta", "cha", "all", "ALL"} {
		var out, errOut strings.Builder
		if code := run([]string{"-callgraph", mode, path}, &out, &errOut); code != 0 {
			t.Errorf("-callgraph %s: exit %d", mode, code)
		}
	}
	var out, errOut strings.Builder
	if code := run([]string{"-callgraph", "bogus", path}, &out, &errOut); code != 2 {
		t.Errorf("bogus mode should exit 2, got %d", code)
	}
	if want := "deadmem: unknown -callgraph \"bogus\"\n"; errOut.String() != want {
		t.Errorf("bogus mode: stderr %q, want %q", errOut.String(), want)
	}
}

func TestPerClassAndUnreachableFlags(t *testing.T) {
	path := writeSample(t)
	var out, errOut strings.Builder
	if code := run([]string{"-classes", "-unreachable", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	s := out.String()
	if !strings.Contains(s, "per-class breakdown") || !strings.Contains(s, "Gadget") {
		t.Errorf("missing per-class breakdown:\n%s", s)
	}
	if !strings.Contains(s, "unreachable function") {
		t.Errorf("missing unreachable section:\n%s", s)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args should exit 2, got %d", code)
	}
	if code := run([]string{"/does/not/exist.mcc"}, &out, &errOut); code != 1 {
		t.Errorf("missing file should exit 1, got %d", code)
	}
}

func TestAnalysisFlags(t *testing.T) {
	src := `
class LibBase {
public:
	virtual void onEvent() {}
	int libdata;
};
class App : public LibBase {
public:
	void* scratch;
	int   seen;
	App() : seen(0) { scratch = malloc(8); }
	~App() { free(scratch); }
	virtual void onEvent() { seen = seen + 1; }
};
int main() {
	App a;
	print(a.seen);
	return 0;
}
`
	path := filepath.Join(t.TempDir(), "lib.mcc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	// Default: scratch is dead via the delete/free rule; libdata is dead
	// (LibBase is an ordinary class here, and nothing reads libdata).
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "App::scratch") {
		t.Errorf("scratch should be dead by default:\n%s", out.String())
	}

	// -no-delete-rule: scratch becomes live.
	out.Reset()
	if code := run([]string{"-no-delete-rule", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out.String(), "App::scratch") {
		t.Errorf("-no-delete-rule should keep scratch live:\n%s", out.String())
	}

	// -library: LibBase members become unclassifiable and disappear from
	// the report.
	out.Reset()
	if code := run([]string{"-library", "LibBase", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out.String(), "LibBase::libdata") {
		t.Errorf("-library should exclude libdata from the dead report:\n%s", out.String())
	}

	// -sizeof variants accepted in any case; bogus rejected.
	for _, policy := range []string{"conservative", "IGNORE"} {
		out.Reset()
		if code := run([]string{"-sizeof", policy, path}, &out, &errOut); code != 0 {
			t.Fatalf("-sizeof %s: exit %d", policy, code)
		}
	}
	errOut.Reset()
	if code := run([]string{"-sizeof", "sometimes", path}, &out, &errOut); code != 2 {
		t.Fatalf("bogus -sizeof should exit 2")
	}
	if want := "deadmem: unknown -sizeof \"sometimes\"\n"; errOut.String() != want {
		t.Errorf("bogus -sizeof: stderr %q, want %q", errOut.String(), want)
	}

	// -trust-downcasts accepted.
	out.Reset()
	if code := run([]string{"-trust-downcasts", path}, &out, &errOut); code != 0 {
		t.Fatalf("-trust-downcasts: exit %d", code)
	}
}

func TestCompileErrorExit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.mcc")
	if err := os.WriteFile(path, []byte("int main() { return x; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Errorf("compile error should exit 1, got %d", code)
	}
	if !strings.Contains(errOut.String(), "undeclared identifier") {
		t.Errorf("stderr missing diagnostic:\n%s", errOut.String())
	}
}

// TestReturnTypeConflictNamed: an out-of-line definition whose return
// type differs from its in-class declaration exits 1 with one error that
// names both types, not with follow-on errors in its body and callers.
func TestReturnTypeConflictNamed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ret.mcc")
	src := `class C {
public:
	int v;
	void f(int a);
};
int C::f(int a) { v = a; return v; }
int main() {
	C c;
	return c.f(1);
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Errorf("conflicting return type should exit 1, got %d", code)
	}
	want := "deadmem: 1 error(s):\n" + path + ":6:5: error: conflicting return type for C::f: defined as int, declared as void\n"
	if !strings.HasPrefix(errOut.String(), want) {
		t.Errorf("stderr:\n%s\nwant prefix:\n%s", errOut.String(), want)
	}
}

func TestMissingInputExit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.mcc")
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Errorf("missing input should exit 1, got %d", code)
	}
	msg := errOut.String()
	if !strings.HasPrefix(msg, "deadmem: ") || strings.Count(strings.TrimRight(msg, "\n"), "\n") != 0 {
		t.Errorf("want a one-line deadmem diagnostic, got:\n%s", msg)
	}
	if strings.Contains(msg, "goroutine") {
		t.Errorf("diagnostic must not include a Go stack trace:\n%s", msg)
	}
}

func TestTimeoutFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ok.mcc")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	// A generous timeout must not perturb a normal run.
	var out, errOut strings.Builder
	if code := run([]string{"-timeout", "1m", path}, &out, &errOut); code != 0 {
		t.Fatalf("run with -timeout 1m failed (%d):\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Gadget::unused") {
		t.Errorf("output missing dead member:\n%s", out.String())
	}
}

// TestRetiredFlagsRejected: deadmem runs locally only, its report is
// tier-invariant, and the engine sizes its own workers, so the
// remote-mode flags, -precision and -parallel are unknown flags.
func TestRetiredFlagsRejected(t *testing.T) {
	path := writeSample(t)
	for _, args := range [][]string{
		{"-server", "http://127.0.0.1:1"},
		{"-retries", "2"},
		{"-precision", "flow"},
		{"-parallel", "2"},
	} {
		var out, errOut strings.Builder
		if code := run(append(args, path), &out, &errOut); code != 2 {
			t.Errorf("%v should exit 2 as an unknown flag, got %d", args, code)
		}
		if !strings.Contains(errOut.String(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: stderr missing unknown-flag diagnostic:\n%s", args, errOut.String())
		}
	}
}
