// Command mccrun compiles and executes MC++ source files on the built-in
// bytecode VM, optionally with heap profiling.
//
// Usage:
//
//	mccrun [flags] file.mcc [more.mcc ...]
//
// The process exits with the interpreted program's exit code; compile or
// runtime errors, timeouts, and internal errors exit with 1, usage errors
// with 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"deadmembers"
	"deadmembers/internal/buildinfo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "mccrun: internal error: %v\n", r)
			code = 1
		}
	}()
	fs := flag.NewFlagSet("mccrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		timeout     = fs.Duration("timeout", 0, "abort compilation and execution after this duration (e.g. 30s; 0 = no limit)")
		profile     = fs.Bool("profile", false, "run the dead-member analysis and report heap statistics")
		maxSteps    = fs.Int64("max-steps", 0, "statement execution limit (0 = default)")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, buildinfo.Line("mccrun"))
		return 0
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: mccrun [flags] file.mcc ...")
		fs.PrintDefaults()
		return 2
	}
	var sources []deadmembers.Source
	for _, path := range fs.Args() {
		text, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "mccrun: %v\n", err)
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
		fmt.Fprintf(stderr, "mccrun: %v\n", err)
		return 1
	}
	for _, f := range comp.Failures() {
		fmt.Fprintf(stderr, "mccrun: degraded: %v\n", f)
	}

	if *profile {
		prof, err := comp.ProfileContext(ctx, deadmembers.Options{MaxSteps: *maxSteps})
		if err != nil {
			fmt.Fprintf(stderr, "mccrun: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, prof.Exec.Output)
		if prof.AccountingErr != nil {
			fmt.Fprintf(stderr, "mccrun: degraded: %v\n", prof.AccountingErr)
		}
		l := prof.Ledger
		fmt.Fprintf(stderr, "---- heap profile ----\n")
		fmt.Fprintf(stderr, "objects allocated:        %d\n", l.TotalObjects)
		fmt.Fprintf(stderr, "object space:             %d bytes\n", l.TotalBytes)
		fmt.Fprintf(stderr, "dead data member space:   %d bytes (%.2f%%)\n", l.DeadBytes, l.DeadPercent())
		fmt.Fprintf(stderr, "high water mark:          %d bytes\n", l.HighWater)
		fmt.Fprintf(stderr, "HWM w/o dead members:     %d bytes (-%.2f%%)\n", l.AdjustedHighWater, l.HighWaterReductionPercent())
		fmt.Fprintf(stderr, "per-class allocation profile:\n")
		for _, st := range l.ByClass() {
			fmt.Fprintf(stderr, "  %-24s %8d objects %10d bytes %8d dead\n",
				st.Class.Name, st.Count, st.Bytes, st.Dead)
		}
		if comp.Degraded() || prof.AccountingErr != nil {
			return 1
		}
		return prof.Exec.ExitCode
	}

	res, err := comp.RunContext(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "mccrun: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, res.Output)
	if comp.Degraded() {
		return 1
	}
	return res.ExitCode
}
