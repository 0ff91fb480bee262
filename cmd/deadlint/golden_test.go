package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deadmembers/internal/heaplive"
)

var update = flag.Bool("update", false, "rewrite the JSON goldens")

// TestJSONGoldens holds `deadlint -format json` at every precision tier
// to a golden for each shipped program: the examples, the top-level
// testdata and the lint fixtures. The goldens are byte-exact, so any
// change to what a tier finds, or to how it words a finding, shows up
// here.
func TestJSONGoldens(t *testing.T) {
	var files []string
	for _, dir := range []string{"examples/mcc", "testdata", "internal/lint/testdata"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", dir, "*.mcc"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no programs in %s: %v", dir, err)
		}
		files = append(files, paths...)
	}
	for _, file := range files {
		stem := strings.NewReplacer("../", "", "/", "_").Replace(filepath.ToSlash(strings.TrimSuffix(file, ".mcc")))
		for _, tier := range heaplive.Tiers() {
			golden := filepath.Join("testdata", stem+"."+tier.String()+".json")
			t.Run(filepath.Base(golden), func(t *testing.T) {
				code, out, errw := runCLI(t, "-format", "json", "-precision", tier.String(), file)
				if code != 0 {
					t.Fatalf("exit = %d, stderr:\n%s", code, errw)
				}
				if *update {
					if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%v (run with -update to record it)", err)
				}
				if out != string(want) {
					t.Errorf("output differs from %s:\ngot:\n%s\nwant:\n%s", golden, out, want)
				}
			})
		}
	}
}
