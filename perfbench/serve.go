package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"deadmembers"
	"deadmembers/internal/bench"
	"deadmembers/internal/lint"
	"deadmembers/internal/server"
	"deadmembers/internal/strip"
	"deadmembers/internal/textreport"
)

// serve-mixed: an operator running deadmemd. One op is one request to an
// in-process server.New (default config plus a temp PersistDir) behind a
// loopback httptest listener, from a closed loop on one connection that
// waits for each reply, as a -server CLI does. Requests never overlap, so
// the process's CPU time across a request is that request's cost, client
// side included. It is the only workload where the server, the engine
// session cache and persist do the work: compiles and fsync'd persist
// writes run beside session hits and persist reads, with the default
// 128-entry session cache evicting.
//
// The connection replays a seeded stream, so a revisit or repeat always
// follows the request it refers to. The stream is stratified: every
// block of blockSize requests holds exactly blockFirst new programs,
// blockRevisit revisits and the rest repeats, each class spread equally
// over the program sizes and the new programs over the endpoints, so seeds
// differ in the programs drawn but not in the mix.
const (
	blockSize      = 100
	blockFirst     = 30
	blockRevisit   = 50
	revisitPerSize = 4   // revisits draw among a size's most recent programs, still cached
	repeatWindow   = 256 // repeats draw among the stream's most recent requests
	checkPerSize   = 2   // programs per size re-rendered in-process
	refEvery       = 50  // requests between two samples of the reference
	warmupClasses  = 25
)

// serveSizes are the class counts of the generated programs.
var serveSizes = []int{25, 50, 100, 200, 400}

// blockRate is the stream length per second of run, in blocks: over twice
// what the two-core reference machine completed on its fastest runs, so
// the clock, not the stream, ends the loop.
const blockRate = 3

type reqClass int

const (
	classFirst   reqClass = iota // a program the server has not seen
	classRevisit                 // a seen program, new analyze or lint options
	classRepeat                  // an exact repeat of an earlier request
)

var classNames = [...]string{"first", "revisit", "repeat"}

// variant is one endpoint with its options.
type variant struct{ endpoint, format, precision string }

// serveVariants are the request kinds: the dead-member report, the
// stripped program, and lint in every format at every precision.
var serveVariants = func() []variant {
	vs := []variant{{endpoint: "analyze"}, {endpoint: "strip"}}
	for _, f := range []string{"text", "json", "sarif"} {
		for _, p := range []string{"paper", "flow", "heap"} {
			vs = append(vs, variant{"lint", f, p})
		}
	}
	return vs
}()

func (v variant) target(file string) string {
	q := url.Values{"file": {file}}
	if v.endpoint == "lint" {
		q.Set("format", v.format)
		q.Set("precision", v.precision)
	}
	return "/v1/" + v.endpoint + "?" + q.Encode()
}

type serveProgram struct {
	name    string
	classes int
	text    string
	used    map[int]bool // variants requested so far
}

type serveRequest struct {
	class   reqClass
	prog    int // index into stream.progs
	variant int // index into serveVariants
	orig    int // index of the first request with the same program and variant
}

// stream is the connection's requests.
type stream struct {
	progs []*serveProgram
	reqs  []serveRequest
}

// buildStream draws a stream of blocks blocks for seed.
func buildStream(seed uint64, blocks int) *stream {
	r := rand.New(rand.NewSource(int64(mix(seed, 1))))
	st := &stream{}
	firsts := map[[2]int]int{} // (program, variant) → its first request
	for b := 0; b < blocks; b++ {
		news := newPrograms(r)
		sizes := map[reqClass][]int{
			classRevisit: stratified(r, blockRevisit),
			classRepeat:  stratified(r, blockSize-blockFirst-blockRevisit),
		}
		for _, c := range blockSlots(r, b == 0) {
			var req serveRequest
			if c == classFirst {
				n := news[0]
				news = news[1:]
				name := fmt.Sprintf("p%d.mcc", len(st.progs))
				text, _ := bench.Generate(programSpec(name, n.classes, mix(seed, uint64(len(st.progs)))))
				req = serveRequest{class: c, prog: len(st.progs), variant: pickVariant(r, nil, n.endpoint)}
				st.progs = append(st.progs, &serveProgram{name: name, classes: n.classes, text: text, used: map[int]bool{}})
			} else {
				req = st.draw(r, c, sizes[c][0])
				sizes[c] = sizes[c][1:]
			}
			key := [2]int{req.prog, req.variant}
			if orig, ok := firsts[key]; ok {
				req.orig = orig
			} else {
				req.orig = len(st.reqs)
				firsts[key] = req.orig
			}
			st.progs[req.prog].used[req.variant] = true
			st.reqs = append(st.reqs, req)
		}
	}
	return st
}

// blockSlots returns one block's request classes in random order. The
// stream's first block opens with one new program of each size, so every
// later revisit and repeat has history of the size it asks for.
func blockSlots(r *rand.Rand, opening bool) []reqClass {
	slots := make([]reqClass, blockSize)
	for i := range slots {
		switch {
		case i < blockFirst:
			slots[i] = classFirst
		case i < blockFirst+blockRevisit:
			slots[i] = classRevisit
		default:
			slots[i] = classRepeat
		}
	}
	r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for k := 0; opening && k < len(serveSizes); k++ {
		for j := k; j < len(slots); j++ {
			if slots[j] == classFirst {
				slots[k], slots[j] = slots[j], slots[k]
				break
			}
		}
	}
	return slots
}

type newProgram struct {
	classes  int
	endpoint string
}

// newPrograms returns a block's new programs: rounds of every size in
// random order, each size asked of every endpoint equally often.
func newPrograms(r *rand.Rand) []newProgram {
	endpoints := []string{"analyze", "lint", "strip"}
	var out []newProgram
	for round := 0; len(out) < blockFirst; round++ {
		for _, si := range r.Perm(len(serveSizes)) {
			out = append(out, newProgram{serveSizes[si], endpoints[(round+si)%len(endpoints)]})
		}
	}
	return out
}

// stratified returns n program sizes, an equal number of each, in random
// order.
func stratified(r *rand.Rand, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = serveSizes[i%len(serveSizes)]
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// draw picks a revisit or repeat of a program of the given size.
func (st *stream) draw(r *rand.Rand, c reqClass, classes int) serveRequest {
	if c == classRevisit {
		// Revisits ask for what the session cache serves, analyze and
		// lint (strip compiles outside the cache), of one of the size's
		// most recent programs with something left to ask.
		var cands []int
		for i := len(st.progs) - 1; i >= 0 && len(cands) < revisitPerSize; i-- {
			if p := st.progs[i]; p.classes == classes && len(unused(p.used, false)) > 0 {
				cands = append(cands, i)
			}
		}
		p := cands[r.Intn(len(cands))]
		return serveRequest{class: c, prog: p, variant: pickVariant(r, st.progs[p].used, "")}
	}
	var cands []serveRequest
	for i := max(0, len(st.reqs)-repeatWindow); i < len(st.reqs); i++ {
		if st.progs[st.reqs[i].prog].classes == classes {
			cands = append(cands, st.reqs[i])
		}
	}
	prev := cands[r.Intn(len(cands))]
	return serveRequest{class: c, prog: prev.prog, variant: prev.variant}
}

// unused groups the variants not in used by endpoint, in the order of
// serveVariants.
func unused(used map[int]bool, withStrip bool) [][]int {
	var groups [][]int
	for i, v := range serveVariants {
		if used[i] || (v.endpoint == "strip" && !withStrip) {
			continue
		}
		if n := len(groups); n > 0 && serveVariants[groups[n-1][0]].endpoint == v.endpoint {
			groups[n-1] = append(groups[n-1], i)
		} else {
			groups = append(groups, []int{i})
		}
	}
	return groups
}

// pickVariant draws a variant not in used: of the given endpoint, or,
// when endpoint is empty, of an analyze or lint endpoint drawn uniformly.
func pickVariant(r *rand.Rand, used map[int]bool, endpoint string) int {
	groups := unused(used, endpoint == "strip")
	if endpoint != "" {
		for _, g := range groups {
			if serveVariants[g[0]].endpoint == endpoint {
				groups = [][]int{g}
			}
		}
	}
	vs := groups[r.Intn(len(groups))]
	return vs[r.Intn(len(vs))]
}

// tracedHalf marks every other request of each kind (class, variant and
// program size), so a traced run's traced and untraced requests carry the
// same mix.
func (st *stream) tracedHalf() []bool {
	seen := map[[3]int]int{}
	out := make([]bool, len(st.reqs))
	for i, req := range st.reqs {
		k := [3]int{int(req.class), req.variant, st.progs[req.prog].classes}
		seen[k]++
		out[i] = seen[k]%2 == 0
	}
	return out
}

// reply is what the client saw for one request.
type reply struct {
	done    bool
	took    cost
	status  int
	persist bool // served from the persist tier
	digest  [32]byte
	err     error
}

// deployment is one running server with its client.
type deployment struct {
	dir    string
	srv    *server.Server
	ts     *httptest.Server
	tr     *http.Transport
	client *http.Client
	stream *stream
}

func deploy(cfg config, blocks int) (*deployment, error) {
	d := &deployment{stream: buildStream(cfg.seed, blocks)}
	dir, err := os.MkdirTemp(cfg.scratch, "persist-")
	if err != nil {
		return nil, err
	}
	d.dir = dir
	d.srv, err = server.New(server.Config{PersistDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.ts = httptest.NewServer(d.srv.Handler())
	d.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	d.client = &http.Client{Transport: d.tr}
	return d, nil
}

// close stops the listener and the client's connections, then removes
// the persist directory.
func (d *deployment) close() error {
	d.tr.CloseIdleConnections()
	d.ts.Close()
	if err := os.RemoveAll(d.dir); err != nil {
		return err
	}
	if _, err := os.Stat(d.dir); !os.IsNotExist(err) {
		return fmt.Errorf("persist directory %s left behind", d.dir)
	}
	return nil
}

// send posts one request and reads the whole reply.
func (d *deployment) send(v variant, name, text string) reply {
	w := startWatch()
	resp, err := d.client.Post(d.ts.URL+v.target(name), "text/plain", strings.NewReader(text))
	if err != nil {
		return reply{done: true, took: w.stop(), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{done: true, took: w.stop(), status: resp.StatusCode, err: err,
		persist: resp.Header.Get("X-Deadmemd-Cache") == "persist", digest: sha256.Sum256(body)}
	if err == nil && resp.StatusCode != http.StatusOK {
		rep.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return rep
}

// warmUp sends one request, so the connection is open before the timed
// loop.
func (d *deployment) warmUp(seed uint64) error {
	name := "warmup.mcc"
	text, _ := bench.Generate(programSpec(name, warmupClasses, mix(seed, 0)))
	if err := d.send(serveVariants[0], name, text).err; err != nil {
		return fmt.Errorf("warm-up request: %w", err)
	}
	return nil
}

func runServeMixed(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out := &outcome{}
	blocks := int(blockRate*cfg.seconds.Seconds()) + 1
	d, took, err := setUp(setupRuns, func(int) (*deployment, error) {
		d, err := deploy(cfg, blocks)
		if err != nil {
			return nil, err
		}
		if err := d.warmUp(cfg.seed); err != nil {
			d.close()
			return nil, err
		}
		return d, nil
	}, func(d *deployment) {
		if err := d.close(); err != nil {
			out.fail(err)
		}
	})
	out.setups = took
	if err != nil {
		return nil, err
	}

	sess0, store0, gc0 := d.srv.Session().Stats(), d.srv.Store().Stats(), gcCount()
	st := d.stream
	replies := make([]reply, len(st.reqs))
	traced := st.tracedHalf()
	out.ref = newReference()
	loop := startWatch()
	deadline := loop.wall.Add(cfg.seconds)
	for i, req := range st.reqs {
		if !time.Now().Before(deadline) {
			break
		}
		if i%refEvery == 0 {
			out.ref.sample()
		}
		p, v := st.progs[req.prog], serveVariants[req.variant]
		var o *opTrace
		if traced[i] {
			o = tr.op(i + 1)
		}
		o.begin("op", classNames[req.class]+"/"+v.endpoint)
		replies[i] = d.send(v, p.name, p.text)
		o.end()
	}
	out.elapsed = loop.stop()
	out.gcCycles = gcCount() - gc0
	sess, store := d.srv.Session().Stats(), d.srv.Store().Stats()

	var all, allCPU []float64
	var allClass []reqClass
	byClass, byEndpoint := map[string][]float64{}, map[string][]float64{}
	var persistHits, rejected int
	for i, req := range st.reqs {
		rep := replies[i]
		if !rep.done {
			break
		}
		out.attempted++
		l := ms(rep.took.wall)
		all = append(all, l)
		allCPU = append(allCPU, ms(rep.took.cpu))
		allClass = append(allClass, req.class)
		if tr == nil || !traced[i] {
			out.ops = append(out.ops, rep.took)
		}
		byClass[classNames[req.class]] = append(byClass[classNames[req.class]], l)
		ep := serveVariants[req.variant].endpoint
		byEndpoint[ep] = append(byEndpoint[ep], l)
		if rep.persist {
			persistHits++
		}
		if rep.status == http.StatusTooManyRequests {
			rejected++
		}
		switch {
		case rep.err != nil:
			out.fail(fmt.Errorf("request %d (%s %s): %w", i, classNames[req.class], ep, rep.err))
		case req.class == classRepeat && rep.digest != replies[req.orig].digest:
			out.fail(fmt.Errorf("request %d: repeat differs from request %d", i, req.orig))
		}
	}
	out.tailP99, out.tailOK = percentile(all, 99)
	out.notes = append(out.notes, "CPU "+medianMix(allCPU, allClass), "wall "+medianMix(all, allClass))

	// Outside the timed loop: re-render a stratified sample of the served
	// bodies in-process and compare.
	checkBodies(tr.op(0), d, replies, out)
	if err := d.close(); err != nil {
		out.fail(err)
	}

	if err := finishTrace(cfg, tr, out); err != nil {
		return nil, err
	}
	if tr != nil {
		m := out.layers
		for _, ep := range []string{"analyze", "lint", "strip"} {
			m["server."+ep+".p50_ms"] = median(byEndpoint[ep])
		}
		for _, cl := range classNames {
			m["server."+cl+".p50_ms"] = median(byClass[cl])
			m["server."+cl+".share"] = float64(len(byClass[cl])) / float64(max(out.attempted, 1))
		}
		if out.tailOK {
			m["server.p99_ms"] = out.tailP99
		}
		m["server.rejected"] = float64(rejected)
		m["persist.hit_ratio"] = float64(persistHits) / float64(max(out.attempted, 1))
		m["persist.writes"] = float64(store.Writes - store0.Writes)
		m["persist.bytes"] = float64(store.Bytes)
		hits, compiles := sess.Hits-sess0.Hits, sess.Compiles-sess0.Compiles
		m["engine.compiles"] = float64(compiles)
		if hits+compiles > 0 {
			m["engine.session_hit_ratio"] = float64(hits) / float64(hits+compiles)
		}
		m["engine.evictions"] = float64(sess.Evictions - sess0.Evictions)
	}
	return out, nil
}

// medianMix reports which request classes the requests ranked from the
// 45th to the 55th percentile of latency belong to: the mix is shaped so
// the median lies inside one class, away from a class boundary.
func medianMix(lat []float64, class []reqClass) string {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return lat[idx[a]] < lat[idx[b]] })
	var n [3]int
	lo, hi := len(idx)*45/100, len(idx)*55/100
	for _, i := range idx[lo:hi] {
		n[class[i]]++
	}
	total := float64(max(hi-lo, 1))
	return fmt.Sprintf("requests ranked p45-p55: first %.0f%%, revisit %.0f%%, repeat %.0f%%",
		100*float64(n[classFirst])/total, 100*float64(n[classRevisit])/total, 100*float64(n[classRepeat])/total)
}

// checkBodies re-renders, in-process through the public API and the
// CLIs' renderers, every distinct request served for the first
// checkPerSize programs of each size, and compares
// the bytes. Traced, the renders are split among modules like an
// analyze-scaled op, as the check phase (op 0).
func checkBodies(o *opTrace, d *deployment, replies []reply, out *outcome) {
	st := d.stream
	picked := map[int]bool{}
	perSize := map[int]int{}
	for _, req := range st.reqs {
		p := st.progs[req.prog]
		if req.class == classFirst && perSize[p.classes] < checkPerSize {
			perSize[p.classes]++
			picked[req.prog] = true
		}
	}
	for i, req := range st.reqs {
		rep := replies[i]
		if !rep.done {
			break
		}
		if !picked[req.prog] || req.orig != i || rep.err != nil {
			continue
		}
		p := st.progs[req.prog]
		want, err := render(o, p, serveVariants[req.variant])
		switch {
		case err != nil:
			out.fail(fmt.Errorf("request %d: rendering %s in-process: %w", i, p.name, err))
		case sha256.Sum256(want) != rep.digest:
			out.fail(fmt.Errorf("request %d (%s): body differs from the in-process renderer", i, serveVariants[req.variant].target(p.name)))
		}
	}
}

// render produces the body a CLI would print for program p and variant v.
func render(o *opTrace, p *serveProgram, v variant) ([]byte, error) {
	src := deadmembers.Source{Name: p.name, Text: p.text}
	label := strconv.Itoa(p.classes)
	o.begin("program", label)
	defer o.end()
	if o != nil {
		prog, h := splitFrontend(o, src)
		splitAnalysis(o, prog, h, label, v.endpoint != "analyze")
	}
	comp, err := compile(o, src)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	opts := deadmembers.Options{}
	switch v.endpoint {
	case "analyze":
		o.begin("analyze", "")
		res := comp.Analyze(opts)
		o.end()
		o.begin("textreport", "")
		err = textreport.Write(&buf, res, textreport.Options{})
		o.end()
	case "strip":
		o.begin("api.strip", "")
		st := comp.Strip(opts, deadmembers.StripOptions{})
		o.end()
		o.begin("printer", "")
		err = strip.WriteSources(&buf, st.Sources)
		o.end()
	default:
		prec := map[string]deadmembers.Precision{"paper": deadmembers.PrecisionPaper, "flow": deadmembers.PrecisionFlow, "heap": deadmembers.PrecisionHeap}[v.precision]
		o.begin("api.lint", v.precision)
		res := comp.Lint(opts, deadmembers.LintOptions{Precision: prec})
		o.end()
		o.begin("lint.write", v.format)
		switch v.format {
		case "json":
			err = lint.WriteJSON(&buf, res)
		case "sarif":
			err = lint.WriteSARIF(&buf, res)
		default:
			err = lint.WriteText(&buf, res)
		}
		o.end()
	}
	return buf.Bytes(), err
}
