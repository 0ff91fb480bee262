// Command perfbench is the repository's benchmark. It runs one of three
// seeded workloads in-process through the layers' public functions,
// checks every output against a reference that does not come from the
// code under test, and prints one metric per line followed by a final
// line holding one JSON object:
//
//	perfbench --workload analyze-scaled --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around every layer call instead, prints the per-layer
// metrics and writes the spans as JSON under --scratch. run.py builds it
// from the checkout and runs it; README.md describes the workloads and
// what each metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	scratch  string // directory inside the checkout for temp files and spans
}

// outcome is what one workload measured.
type outcome struct {
	setups    []cost // each set-up, warm-up op included
	ops       []cost // untraced ops
	elapsed   cost   // the timed loop
	ref       *reference
	attempted int
	failed    int
	checkErrs []string // the first few failed checks
	notes     []string // workload-specific lines for the human-readable output
	gcCycles  uint32   // garbage collections during the timed loop
	tailP99   float64  // op_p99_ms, when enough ops lie beyond it
	tailOK    bool
	spans     []span
	layers    map[string]float64 // per-layer metrics (traced run)
}

// fail records one failed check.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.checkErrs) < 5 {
		o.checkErrs = append(o.checkErrs, err.Error())
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"analyze-scaled": runAnalyzeScaled,
	"profile-corpus": runProfileCorpus,
	"serve-mixed":    runServeMixed,
}

// endToEnd lists the metrics a traced-off run prints, with their units;
// BENCHMARK.json declares the same list. Times are the process's CPU time
// (see cost) at the reference machine's speed (see reference); the
// unscaled and wall-clock figures are printed as notes.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_p50_ms", "ms"},
	{"req_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// corpusNames are the 11 programs of the paper corpus, in the paper's order.
var corpusNames = []string{"jikes", "idl", "npic", "lcom", "taldict", "ixx", "simulate", "sched", "hotwire", "deltablue", "richards"}

// perLayer lists the metrics a traced run prints; BENCHMARK.json declares
// the same list. A layer a workload does not run reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"lexer.ms", "ms"}, {"lexer.mtok_per_s", "Mtok/s"},
		{"parser.ms", "ms"}, {"parser.alloc_mb", "MB"},
		{"sema.ms", "ms"}, {"sema.alloc_mb", "MB"},
		{"callgraph.ms", "ms"}, {"callgraph.alloc_mb", "MB"}, {"callgraph.scaling_exp", "exponent"},
		{"deadmember.ms", "ms"}, {"deadmember.alloc_mb", "MB"},
		{"lint.flow.ms", "ms"}, {"lint.heap.ms", "ms"}, {"lint.alloc_mb", "MB"},
		{"lint.findings.flow", "count"}, {"lint.findings.heap", "count"},
		{"heaplive.ms", "ms"},
		{"strip.ms", "ms"}, {"strip.alloc_mb", "MB"}, {"strip.removed", "count"},
		{"textreport.ms", "ms"},
		{"engine.compile_ms", "ms"}, {"engine.compiles", "count"},
		{"engine.session_hit_ratio", "ratio"}, {"engine.evictions", "count"},
		{"dynprof.ms", "ms"}, {"dynprof.msteps_per_s", "Msteps/s"}, {"dynprof.alloc_mb", "MB"},
	}
	for _, p := range corpusNames {
		defs = append(defs, metricDef{"dynprof." + p + ".ms", "ms"})
	}
	defs = append(defs,
		metricDef{"interp.steps", "count"}, metricDef{"heapsim.objects", "count"},
		metricDef{"server.analyze.p50_ms", "ms"}, metricDef{"server.lint.p50_ms", "ms"}, metricDef{"server.strip.p50_ms", "ms"},
		metricDef{"server.first.p50_ms", "ms"}, metricDef{"server.revisit.p50_ms", "ms"}, metricDef{"server.repeat.p50_ms", "ms"},
		metricDef{"server.first.share", "ratio"}, metricDef{"server.revisit.share", "ratio"}, metricDef{"server.repeat.share", "ratio"},
		metricDef{"server.p99_ms", "ms"}, metricDef{"server.rejected", "count"},
		metricDef{"persist.hit_ratio", "ratio"}, metricDef{"persist.writes", "count"}, metricDef{"persist.bytes", "bytes"},
		metricDef{"trace.op_p50_ms", "ms"}, metricDef{"trace.untraced_op_p50_ms", "ms"}, metricDef{"trace.overhead_pct", "%"},
	)
	return defs
}()

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: analyze-scaled, profile-corpus or serve-mixed")
	seed := fs.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := fs.Int("seconds", 30, "seconds the timed loop runs")
	trace := fs.Int("trace", 0, "1: record spans and print the per-layer metrics")
	scratch := fs.String("scratch", filepath.Join(".bench_build", "work"), "directory for temp files and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload {analyze-scaled,profile-corpus,serve-mixed}, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	cfg := config{workload: *name, seed: uint64(*seed), seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, scratch: *scratch}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	// A run killed before its clean-up leaves its persist directory
	// behind; the next run in the checkout removes it.
	stale, _ := filepath.Glob(filepath.Join(cfg.scratch, "persist-*"))
	for _, dir := range stale {
		os.RemoveAll(dir)
	}

	goroutines := runtime.NumGoroutine()
	out, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := waitGoroutines(goroutines, 2*time.Second); err != nil {
		out.fail(err)
	}

	bw := bufio.NewWriter(stdout)
	res := report(bw, cfg, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(bw, "%s\n", line)
	if err := bw.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable lines and returns the result line.
func report(w io.Writer, cfg config, out *outcome) result {
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace)
	defs := endToEnd
	var values map[string]float64
	if cfg.trace {
		defs, values = perLayer, out.layers
	} else {
		k := out.ref.scale()
		values = map[string]float64{
			"setup_s":       k * median(seconds(cpuOf(out.setups))),
			"op_cpu_p50_ms": k * median(durationsMs(cpuOf(out.ops))),
			"req_per_cpu_s": perSecond(len(out.ops), k*sum(seconds(cpuOf(out.ops)))),
			"peak_rss_mb":   peakRSSMB(),
		}
	}
	for _, d := range defs {
		v := values[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-32s %14.4f %s\n", d.name, v, d.unit)
	}
	if !cfg.trace {
		fmt.Fprintf(w, "%-32s %14s ms  (%s)\n", "op_p99_ms", tail(out), "wall clock; reported only with ten or more ops beyond it")
		fmt.Fprintf(w, "# set-ups %d, timed ops %d (untraced %d) over %.2f s wall, %.2f s CPU\n",
			len(out.setups), out.attempted, len(out.ops), out.elapsed.wall.Seconds(), out.elapsed.cpu.Seconds())
		fmt.Fprintf(w, "# reference: %d samples, median %.4f ms CPU against %.0f ms nominal; times above are scaled by %.4f\n",
			len(out.ref.samples), median(durationsMs(out.ref.samples)), ms(refNominal), out.ref.scale())
		fmt.Fprintf(w, "# unscaled CPU: set-up median %.4f s, op median %.4f ms, %.4f ops per CPU second\n",
			median(seconds(cpuOf(out.setups))), median(durationsMs(cpuOf(out.ops))), perSecond(len(out.ops), sum(seconds(cpuOf(out.ops)))))
		fmt.Fprintf(w, "# wall clock: set-up median %.4f s, op median %.4f ms, %.4f ops/s\n",
			median(seconds(wallOf(out.setups))), median(durationsMs(wallOf(out.ops))), float64(out.attempted)/out.elapsed.wall.Seconds())
		for _, c := range []struct {
			name string
			ds   []time.Duration
		}{{"CPU", cpuOf(out.ops)}, {"wall", wallOf(out.ops)}} {
			if q := sorted(durationsMs(c.ds)); len(q) > 0 {
				n := len(q)
				fmt.Fprintf(w, "# op %s ms: min %.3f, q1 %.3f, median %.3f, q3 %.3f, max %.3f\n",
					c.name, q[0], q[n/4], median(q), q[3*n/4], q[n-1])
			}
		}
		fmt.Fprintf(w, "# %d garbage collections in the timed loop\n", out.gcCycles)
		for _, n := range out.notes {
			fmt.Fprintf(w, "# %s\n", n)
		}
	}
	fmt.Fprintf(w, "%-32s %14.4f ratio  (%d of %d ops failed)\n", "fail_ratio", float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
	for _, e := range out.checkErrs {
		fmt.Fprintf(w, "# FAILED CHECK: %s\n", e)
	}
	if out.attempted < 1 {
		res.Correct = false
		fmt.Fprintf(w, "# FAILED CHECK: no op completed\n")
	}
	return res
}

func tail(out *outcome) string {
	if !out.tailOK {
		return "-"
	}
	return strconv.FormatFloat(out.tailP99, 'f', 4, 64)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cost is what one piece of work took: wall clock and the process's CPU
// time, user and system, over all its threads. The end-to-end metrics
// report CPU time, scaled by the reference. On the shared host the
// benchmark runs on, whole minutes of wall clock run two to three times
// slower than others while the host runs other guests on the same cores;
// the guest kernel accounts that time as steal and leaves it out of the
// process's CPU time.
type cost struct{ wall, cpu time.Duration }

// stopwatch is a started measurement of a cost.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (s stopwatch) stop() cost { return cost{time.Since(s.wall), cpuTime() - s.cpu} }

// cpuTime is the CPU time the process has used so far.
func cpuTime() time.Duration { return cpuClock(clockProcessCPUTime) }

// CPU-time clocks for clock_gettime. getrusage is no substitute: it
// counts a running thread's time only up to its last scheduler tick, and
// ticks are 4 ms apart on the reference machine, longer than many
// requests take.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func cpuOf(cs []cost) []time.Duration {
	out := make([]time.Duration, len(cs))
	for i, c := range cs {
		out[i] = c.cpu
	}
	return out
}

func wallOf(cs []cost) []time.Duration {
	out := make([]time.Duration, len(cs))
	for i, c := range cs {
		out[i] = c.wall
	}
	return out
}

func gcCount() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// waitGoroutines waits until no more goroutines run than before the
// workload started: a listener, connection or worker left behind is a
// failed check.
func waitGoroutines(before int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines outlived the run (%d before it)", n, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// setUp runs build n times, times each run, releases all but the last
// state and returns it: set-up time is reported as the median.
func setUp[S any](n int, build func(id int) (S, error), release func(S)) (S, []cost, error) {
	var last S
	var took []cost
	for i := 1; i <= n; i++ {
		w := startWatch()
		s, err := build(-i)
		took = append(took, w.stop())
		if err != nil {
			return last, took, err
		}
		if i < n {
			release(s)
		}
		last = s
	}
	return last, took, nil
}

// setupRuns is how many times each workload sets up per run.
const setupRuns = 3

// refPerOp is how many times a batch workload samples the reference
// before each op.
const refPerOp = 3

// timedLoop runs op until the run's seconds are spent; the op in flight
// finishes. op performs the timed work and returns the untimed check of
// its outputs. When tracing, even-numbered ops are traced and odd ones
// are not, so one run measures both and the tracing overhead.
func timedLoop(cfg config, tr *tracer, out *outcome, op func(o *opTrace) (check func() error)) {
	gc := gcCount()
	defer func() { out.gcCycles = gcCount() - gc }()
	out.ref = newReference()
	loop := startWatch()
	deadline := loop.wall.Add(cfg.seconds)
	for id := 1; time.Now().Before(deadline); id++ {
		var o *opTrace
		if id%2 == 0 {
			o = tr.op(id)
		}
		runtime.GC()
		for range refPerOp {
			out.ref.sample()
		}
		w := startWatch()
		o.begin("op", "")
		check := op(o)
		o.end()
		took := w.stop()
		if o == nil {
			out.ops = append(out.ops, took)
		}
		out.attempted++
		if err := check(); err != nil {
			out.fail(fmt.Errorf("op %d: %w", id, err))
		}
	}
	out.elapsed = loop.stop()
}

// finishTrace writes the spans and derives the layer-independent traced
// metrics: the overhead of tracing on op_p50_ms.
func finishTrace(cfg config, tr *tracer, out *outcome) error {
	if tr == nil {
		return nil
	}
	out.spans = tr.finish()
	traced := median(tracedOpMs(out.spans))
	untraced := median(durationsMs(wallOf(out.ops)))
	out.layers = spanLayers(out.spans)
	out.layers["trace.op_p50_ms"] = traced
	out.layers["trace.untraced_op_p50_ms"] = untraced
	if traced > 0 && untraced > 0 {
		out.layers["trace.overhead_pct"] = 100 * (traced/untraced - 1)
	}
	path := filepath.Join(cfg.scratch, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	return writeSpans(path, cfg.workload, cfg.seed, out.spans)
}

// spanLayers derives the per-layer metrics every workload measures the
// same way from its spans. Split calls give the modules inside one public
// call: ParseFileWithTypes lexes again, so the parser's own cost is its
// span minus the lexer's on the same file, and heaplive's is the heap
// tier's lint minus the flow tier's.
func spanLayers(spans []span) map[string]float64 {
	m := map[string]float64{}
	lex, par, sem := layer(spans, "lexer", ""), layer(spans, "parser", ""), layer(spans, "sema", "")
	m["lexer.ms"] = lex.ms
	if lex.ms > 0 {
		m["lexer.mtok_per_s"] = lex.count / lex.ms / 1e3
	}
	m["parser.ms"] = par.ms - lex.ms
	m["parser.alloc_mb"] = par.allocMB - lex.allocMB
	m["sema.ms"], m["sema.alloc_mb"] = sem.ms, sem.allocMB
	cg, dm := layer(spans, "callgraph", ""), layer(spans, "deadmember", "")
	m["callgraph.ms"], m["callgraph.alloc_mb"] = cg.ms, cg.allocMB
	m["deadmember.ms"], m["deadmember.alloc_mb"] = dm.ms, dm.allocMB
	flow, heap := layer(spans, "lint", "flow"), layer(spans, "lint", "heap")
	m["lint.flow.ms"], m["lint.heap.ms"] = flow.ms, heap.ms
	m["lint.alloc_mb"] = flow.allocMB + heap.allocMB
	m["lint.findings.flow"], m["lint.findings.heap"] = flow.count, heap.count
	m["heaplive.ms"] = heap.ms - flow.ms
	st, pr := layer(spans, "strip", ""), layer(spans, "printer", "")
	m["strip.ms"] = st.ms + pr.ms
	m["strip.alloc_mb"] = st.allocMB + pr.allocMB
	m["strip.removed"] = st.count
	m["textreport.ms"] = layer(spans, "textreport", "").ms
	comp := layer(spans, "compile", "")
	m["engine.compile_ms"] = comp.ms
	m["engine.compiles"] = comp.count
	return m
}
