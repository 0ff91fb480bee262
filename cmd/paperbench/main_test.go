package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDumpBenchmark(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-dump", "richards"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "class Scheduler") {
		t.Errorf("dump missing richards content")
	}
}

func TestDumpUnknown(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-dump", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown benchmark should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "jikes") {
		t.Errorf("error should list available benchmarks:\n%s", errOut.String())
	}
}

func TestSingleExhibits(t *testing.T) {
	// -table1 and -figure3 only need the (cached-by-nothing) pipeline; run
	// them in one process invocation each to keep the test fast but real.
	var out, errOut strings.Builder
	if code := run([]string{"-table1", "-figure3", "-summary"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"Table 1", "Figure 3", "Headline numbers", "12.5%"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(s, "Table 2") {
		t.Error("-table2 output present though not requested")
	}
}

func TestTimingsFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-timings", "-ablation", "-parallel", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"parse", "sema", "liveness", "Ablations"} {
		if !strings.Contains(s, want) {
			t.Errorf("-timings output missing %q:\n%s", want, s)
		}
	}
	// All exhibits share one session: 11 compiles total even with the
	// ablation sweep included.
	if !strings.Contains(s, "session: 11 frontend compile(s)") {
		t.Errorf("timings output should report 11 session compiles:\n%s", s)
	}
}

func TestCSVFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-csv"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 12 || !strings.HasPrefix(lines[0], "benchmark,") {
		t.Errorf("unexpected CSV output (%d lines)", len(lines))
	}
}

func TestTimeoutAbortsSweep(t *testing.T) {
	var out, errOut strings.Builder
	start := time.Now()
	if code := run([]string{"-timeout", "1ns", "-table1"}, &out, &errOut); code != 1 {
		t.Fatalf("timed-out sweep should exit 1, got %d\nstderr: %s", code, errOut.String())
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("sweep took %v to honor an expired timeout", elapsed)
	}
	if !strings.Contains(errOut.String(), "deadline") {
		t.Errorf("stderr missing deadline diagnostic:\n%s", errOut.String())
	}
}

// TestEngineFlagRejected: the VM is the only engine, so the flags that
// selected or compared engines are unknown flags now.
func TestEngineFlagRejected(t *testing.T) {
	for _, args := range [][]string{{"-engine", "vm"}, {"-engines"}, {"-large"}, {"-json"}} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v should exit 2 as an unknown flag, got %d", args, code)
		}
		if !strings.Contains(errOut.String(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: stderr missing unknown-flag diagnostic:\n%s", args, errOut.String())
		}
	}
}

// TestProfiledExhibitsThroughVM: Table 2 and Figure 4, which execute
// every corpus program on the VM, are byte-identical to the golden
// recorded from the tree-walking interpreter.
func TestProfiledExhibitsThroughVM(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "table2_figure4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-table2", "-figure4"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if out.String() != string(want) {
		t.Errorf("-table2 -figure4 differs from the golden:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}
