// Command deadstrip applies the space optimization the paper motivates:
// it analyzes MC++ sources, removes the guaranteed-dead data members (and
// unreachable functions) whose removal is provably behaviour-preserving,
// and writes the transformed program to stdout.
//
// Usage:
//
//	deadstrip [flags] file.mcc [more.mcc ...] > stripped.mcc
//
// Diagnostics (what was removed, what was kept and why) go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"deadmembers"
	"deadmembers/internal/buildinfo"
	"deadmembers/internal/strip"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "deadstrip: internal error: %v\n", r)
			code = 1
		}
	}()
	fs := flag.NewFlagSet("deadstrip", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		timeout         = fs.Duration("timeout", 0, "abort the run after this duration (e.g. 30s; 0 = no limit)")
		keepUnreachable = fs.Bool("keep-unreachable", false, "do not remove unreachable functions")
		verify          = fs.Bool("verify", true, "run original and stripped programs and compare behaviour")
		showVersion     = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, buildinfo.Line("deadstrip"))
		return 0
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: deadstrip [flags] file.mcc ...")
		fs.PrintDefaults()
		return 2
	}

	var sources []deadmembers.Source
	for _, path := range fs.Args() {
		text, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "deadstrip: %v\n", err)
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

	// Compile once; the same compilation serves the strip transform and
	// the verification run of the original program.
	comp, err := deadmembers.CompileContext(ctx, sources...)
	if err != nil {
		fmt.Fprintf(stderr, "deadstrip: %v\n", err)
		return 1
	}
	if comp.Degraded() {
		// A degraded analysis could misclassify members: never emit a
		// transform derived from salvaged results.
		for _, f := range comp.Failures() {
			fmt.Fprintf(stderr, "deadstrip: degraded: %v\n", f)
		}
		fmt.Fprintf(stderr, "deadstrip: refusing to strip from a degraded compilation\n")
		return 1
	}

	var before *deadmembers.ExecResult
	if *verify {
		before, err = comp.RunContext(ctx)
		if err != nil {
			fmt.Fprintf(stderr, "deadstrip: original does not run: %v\n", err)
			return 1
		}
	}

	out := comp.Strip(deadmembers.Options{}, deadmembers.StripOptions{
		KeepUnreachable: *keepUnreachable,
	})

	for _, m := range out.RemovedMembers {
		fmt.Fprintf(stderr, "removed member   %s\n", m)
	}
	for _, f := range out.RemovedFunctions {
		fmt.Fprintf(stderr, "removed function %s\n", f)
	}
	kept := make([]string, 0, len(out.KeptMembers))
	for m := range out.KeptMembers {
		kept = append(kept, m)
	}
	sort.Strings(kept)
	for _, m := range kept {
		fmt.Fprintf(stderr, "kept dead member %s: %s\n", m, out.KeptMembers[m])
	}

	if *verify {
		stripped, err := deadmembers.CompileContext(ctx, out.Sources...)
		if err != nil {
			fmt.Fprintf(stderr, "deadstrip: stripped program does not compile: %v\n", err)
			return 1
		}
		after, err := stripped.RunContext(ctx)
		if err != nil {
			fmt.Fprintf(stderr, "deadstrip: stripped program does not run: %v\n", err)
			return 1
		}
		if before.Output != after.Output || before.ExitCode != after.ExitCode {
			fmt.Fprintf(stderr, "deadstrip: BEHAVIOUR CHANGED — refusing to emit\n")
			return 1
		}
		fmt.Fprintf(stderr, "verified: identical behaviour (exit %d)\n", after.ExitCode)
	}

	if err := strip.WriteSources(stdout, out.Sources); err != nil {
		fmt.Fprintf(stderr, "deadstrip: %v\n", err)
		return 1
	}
	return 0
}
