package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStripsAndVerifies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.mcc")
	src := `
class Cfg {
public:
	int port;
	int legacyTimeout; // dead: written, never read
	Cfg() : port(80), legacyTimeout(30) {}
};
int main() {
	Cfg c;
	print(c.port);
	println();
	return 0;
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "removed member   Cfg::legacyTimeout") {
		t.Errorf("stderr missing removal report:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "verified: identical behaviour") {
		t.Errorf("stderr missing verification:\n%s", errOut.String())
	}
	if strings.Contains(out.String(), "legacyTimeout") {
		t.Errorf("stripped source still contains the member:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "int port;") {
		t.Errorf("stripped source lost the live member:\n%s", out.String())
	}
}

// TestDeleteThroughNonVirtualBaseVerifies: deleting a Derived through a
// Base without a virtual destructor runs Base's destruction only, which
// is what the call graph reaches, so stripping the delete's operand
// H::p keeps the program's behaviour (empty output) and verifies.
func TestDeleteThroughNonVirtualBaseVerifies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.mcc")
	src := `
class Base { public: int tag; Base() { tag = 1; } };
class Derived : public Base { public: int v; Derived() { v = 9; } ~Derived() { print(v); println(); } };
class H { public: Base* p; H() { p = new Derived(); } ~H() { delete p; } };
int main() { H h; return 0; }
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"removed member   H::p", "verified: identical behaviour"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut.String())
		}
	}
}

// TestKeptMembersSorted: dead members that cannot be stripped safely are
// reported in order of their qualified names on every run. Each one here
// is written through an effectful receiver (o.pa()->d = 5), so all three
// are kept.
func TestKeptMembersSorted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kept.mcc")
	src := `
class A {
public:
	int f;
	int d;
	int e;
	A() : f(0), d(0), e(0) {}
};
class O {
public:
	A a;
	A* pa() { return &a; }
};
int main() {
	O o;
	o.pa()->f = 7;
	o.pa()->d = 5;
	o.pa()->e = 6;
	print(1);
	println();
	return 0;
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	want := []string{"kept dead member A::d:", "kept dead member A::e:", "kept dead member A::f:"}
	for i := 0; i < 20; i++ {
		var out, errOut strings.Builder
		if code := run([]string{path}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
		}
		var got []string
		for _, line := range strings.Split(errOut.String(), "\n") {
			if strings.HasPrefix(line, "kept dead member ") {
				got = append(got, line[:len("kept dead member A::x:")])
			}
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("run %d: kept members %q, want %q; stderr:\n%s", i, got, want, errOut.String())
		}
	}
}

func TestUsageAndErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args should exit 2, got %d", code)
	}
	if code := run([]string{"/nope.mcc"}, &out, &errOut); code != 1 {
		t.Errorf("missing file should exit 1, got %d", code)
	}
}

// TestRetiredFlagsRejected: deadstrip runs locally only, its output is
// tier-invariant, and the engine sizes its own workers, so the
// remote-mode flags, -precision and -parallel are unknown flags.
func TestRetiredFlagsRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.mcc")
	if err := os.WriteFile(path, []byte("int main() { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
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
