package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deadmembers/internal/bench"
)

var update = flag.Bool("update", false, "rewrite the deadstrip goldens")

// goldenFlagSets are the command lines the goldens hold: the default run,
// which verifies and removes unreachable functions, and the run that does
// neither.
var goldenFlagSets = []struct {
	name string
	args []string
}{
	{"default", nil},
	{"keep-noverify", []string{"-verify=false", "-keep-unreachable"}},
}

// runGolden runs deadstrip with args and renders its exit code, stderr
// and stdout as one text.
func runGolden(args ...string) string {
	var out, errw strings.Builder
	code := run(args, &out, &errw)
	return fmt.Sprintf("exit %d\n-- stderr --\n%s-- stdout --\n%s", code, errw.String(), out.String())
}

// TestGoldens holds deadstrip's stdout, stderr and exit code under each
// golden flag set: byte for byte for every shipped program (the
// examples, the top-level testdata and every internal package's
// fixtures), and as one sha256 per program and flag set for the paper
// corpus. What the transform removes, keeps and emits, and what the
// verification run reports, all show up here.
func TestGoldens(t *testing.T) {
	var files []string
	for _, pattern := range []string{"examples/mcc/*.mcc", "testdata/*.mcc", "internal/*/testdata/*.mcc"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", pattern))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no programs match %s: %v", pattern, err)
		}
		files = append(files, paths...)
	}
	for _, file := range files {
		stem := strings.NewReplacer("../", "", "/", "_").Replace(filepath.ToSlash(strings.TrimSuffix(file, ".mcc")))
		for _, set := range goldenFlagSets {
			golden := filepath.Join("testdata", stem+"."+set.name+".txt")
			t.Run(filepath.Base(golden), func(t *testing.T) {
				checkGolden(t, golden, runGolden(append(set.args, file)...))
			})
		}
	}

	// The corpus programs are large, so their runs are held as hashes.
	// Each is written under its own name in a scratch directory, whose
	// path is replaced before hashing.
	dir := t.TempDir()
	var b strings.Builder
	for _, bm := range bench.All() {
		path := filepath.Join(dir, bm.Sources[0].Name)
		if err := os.WriteFile(path, []byte(bm.Sources[0].Text), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, set := range goldenFlagSets {
			got := strings.ReplaceAll(runGolden(append(set.args, path)...), dir, "$DIR")
			fmt.Fprintf(&b, "%s %s %x\n", bm.Name, set.name, sha256.Sum256([]byte(got)))
		}
	}
	checkGolden(t, filepath.Join("testdata", "corpus.sha256"), b.String())
}

// checkGolden compares got with the golden file, or rewrites it under
// -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
