// Command deadlint emits flow-sensitive diagnostics for MC++ programs:
// dead stores to data members (a write no execution path can observe)
// and write-only members (the flow-insensitive dead set of Sweeney &
// Tip, explained store site by store site).
//
// Usage:
//
//	deadlint [flags] file.mcc [more.mcc ...]
//
// Findings are sorted by (file, line, col, check) and printed in text
// (default), JSON, or SARIF 2.1.0. Exit status is 0 on success — even
// when findings are reported — 1 on compilation errors, degraded runs,
// timeouts, and internal errors, 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"deadmembers"
	"deadmembers/internal/buildinfo"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/heaplive"
	"deadmembers/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "deadlint: internal error: %v\n", r)
			code = 1
		}
	}()
	fs := flag.NewFlagSet("deadlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format         = fs.String("format", "text", "output format: text, json, or sarif")
		timeout        = fs.Duration("timeout", 0, "abort the run after this duration (e.g. 30s; 0 = no limit)")
		budget         = fs.Int("budget", 0, "dataflow solver step budget per function (0 = automatic)")
		precisionFlag  = fs.String("precision", "flow", "liveness tier: paper (flow-insensitive only), flow, or heap (access-graph chained paths)")
		callgraphMode  = fs.String("callgraph", "rta", "call graph construction: rta, cha, or all")
		libraries      = fs.String("library", "", "comma-separated class names treated as library classes")
		trustDowncasts = fs.Bool("trust-downcasts", false, "treat all downcasts as verified safe")
		stageTimings   = fs.Bool("timings", false, "print per-stage wall-clock timings to stderr")
		showVersion    = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, buildinfo.Line("deadlint"))
		return 0
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: deadlint [flags] file.mcc ...")
		fs.PrintDefaults()
		return 2
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "deadlint: unknown -format %q\n", *format)
		return 2
	}
	precision, err := heaplive.ParsePrecision(*precisionFlag)
	if err != nil {
		fmt.Fprintf(stderr, "deadlint: %v\n", err)
		return 2
	}

	opts := deadmembers.Options{
		TrustDowncasts: *trustDowncasts,
	}
	var ok bool
	if opts.CallGraph, ok = callgraph.ParseMode(*callgraphMode); !ok {
		fmt.Fprintf(stderr, "deadlint: unknown -callgraph %q\n", *callgraphMode)
		return 2
	}
	if *libraries != "" {
		opts.LibraryClasses = strings.Split(*libraries, ",")
	}

	var sources []deadmembers.Source
	for _, path := range fs.Args() {
		text, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "deadlint: %v\n", err)
			return 1
		}
		sources = append(sources, deadmembers.Source{Name: path, Text: string(text)})
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	comp, err := deadmembers.CompileContext(ctx, sources...)
	if err != nil {
		fmt.Fprintf(stderr, "deadlint: %v\n", err)
		return 1
	}
	res, timings, err := comp.LintContext(ctx, opts, deadmembers.LintOptions{Budget: *budget, Precision: precision})
	if err != nil {
		fmt.Fprintf(stderr, "deadlint: %v\n", err)
		return 1
	}

	degraded := comp.Degraded() || res.Degraded()
	for _, f := range comp.Failures {
		fmt.Fprintf(stderr, "deadlint: degraded: %v\n", f)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "deadlint: degraded: %v\n", f)
	}

	switch *format {
	case "text":
		err = lint.WriteText(stdout, res)
	case "json":
		err = lint.WriteJSON(stdout, res)
	case "sarif":
		err = lint.WriteSARIF(stdout, res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "deadlint: %v\n", err)
		return 1
	}

	if *stageTimings {
		fmt.Fprintf(stderr, "engine stage timings:\n")
		for _, row := range []struct {
			name string
			d    time.Duration
		}{
			{"parse", timings.Parse},
			{"sema", timings.Sema},
			{"callgraph", timings.CallGraph},
			{"liveness", timings.Liveness},
			{"lint", timings.Lint},
			{"total", timings.Total()},
		} {
			fmt.Fprintf(stderr, "  %-10s %12v\n", row.name, row.d)
		}
	}
	if degraded {
		fmt.Fprintln(stderr, "RESULT DEGRADED: findings may be missing; see diagnostics above")
		return 1
	}
	return 0
}
