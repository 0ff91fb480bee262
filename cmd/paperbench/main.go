// Command paperbench regenerates every table and figure of the paper's
// evaluation over the built-in benchmark corpus.
//
// Usage:
//
//	paperbench                 # all exhibits
//	paperbench -table1         # just Table 1
//	paperbench -figure3 -figure4
//	paperbench -ablation       # the design-choice ablations
//	paperbench -precision      # precision/cost frontier across liveness tiers
//	paperbench -timings        # per-stage engine wall-clock timings
//	paperbench -csv            # machine-readable results
//	paperbench -dump richards  # print a corpus benchmark's MC++ source
//
// All exhibits share one engine session: each corpus benchmark is
// compiled exactly once, no matter how many tables, figures, and ablation
// variants are produced from it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"deadmembers/internal/bench"
	"deadmembers/internal/buildinfo"
	"deadmembers/internal/engine"
	"deadmembers/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "paperbench: internal error: %v\n", r)
			code = 1
		}
	}()
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		timeout     = fs.Duration("timeout", 0, "abort the whole evaluation after this duration (e.g. 2m; 0 = no limit)")
		table1      = fs.Bool("table1", false, "benchmark characteristics (paper Table 1)")
		figure3     = fs.Bool("figure3", false, "static dead-member percentages (paper Figure 3)")
		table2      = fs.Bool("table2", false, "dynamic byte counts (paper Table 2)")
		figure4     = fs.Bool("figure4", false, "dynamic percentages (paper Figure 4)")
		summary     = fs.Bool("summary", false, "headline numbers vs the paper's abstract")
		ablation    = fs.Bool("ablation", false, "analysis-variant ablations")
		precision   = fs.Bool("precision", false, "precision/cost frontier: lint findings and wall clock per liveness tier (paper/flow/heap)")
		timings     = fs.Bool("timings", false, "per-stage engine wall-clock timings and session cache counters")
		csvOut      = fs.Bool("csv", false, "machine-readable measured results")
		dump        = fs.String("dump", "", "print the MC++ source of the named corpus benchmark and exit")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, buildinfo.Line("paperbench"))
		return 0
	}

	if *dump != "" {
		b, err := bench.ByName(*dump)
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: %v (have: %v)\n", err, bench.Names())
			return 2
		}
		for _, s := range b.Sources {
			fmt.Fprintf(stdout, "// ---- %s ----\n%s", s.Name, s.Text)
		}
		return 0
	}

	all := !*table1 && !*figure3 && !*table2 && !*figure4 && !*summary && !*ablation && !*precision && !*timings && !*csvOut

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	session := engine.NewSession(engine.Config{}, engine.Limits{})

	results, err := report.CollectAll(ctx, session)
	if err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 1
	}

	if all || *table1 {
		fmt.Fprintln(stdout, report.Table1(results))
	}
	if all || *figure3 {
		fmt.Fprintln(stdout, report.Figure3(results))
	}
	if all || *table2 {
		fmt.Fprintln(stdout, report.Table2(results))
	}
	if all || *figure4 {
		fmt.Fprintln(stdout, report.Figure4(results))
	}
	if all || *summary {
		fmt.Fprintln(stdout, report.Summary(results))
	}
	if *csvOut {
		fmt.Fprint(stdout, report.CSV(results))
	}
	if all || *ablation {
		rows, err := report.RunAblations(ctx, session)
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, report.AblationTable(rows))
	}
	// Like -timings, the frontier carries wall-clock columns, so it is
	// opt-in only: the default exhibit set stays byte-identical across
	// runs and GOMAXPROCS settings.
	if *precision {
		fmt.Fprintln(stdout, report.PrecisionTable(results))
	}
	if *timings {
		fmt.Fprintln(stdout, report.TimingsTable(results, session.Stats()))
	}
	if report.AnyDegraded(results) {
		fmt.Fprint(stderr, report.DegradedNote(results))
		fmt.Fprintln(stderr, "paperbench: some benchmarks are degraded; their rows are marked and excluded from summary statistics")
		return 1
	}
	return 0
}
