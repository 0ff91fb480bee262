package server

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/heaplive"
)

// httpError is a handler failure carrying the status code to report.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) *httpError {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// wireRequest is the JSON body of /v1/analyze, /v1/lint and /v1/strip.
// Field names mirror the CLI flags one for one: a request and a command
// line describe the same run. Each endpoint ignores the fields of the
// others.
type wireRequest struct {
	Sources []wireSource `json:"sources"`
	Options wireOptions  `json:"options"`

	// analyze sections (deadmem -v / -classes / -unreachable)
	Verbose     bool `json:"verbose,omitempty"`
	Classes     bool `json:"classes,omitempty"`
	Unreachable bool `json:"unreachable,omitempty"`

	// lint (deadlint -format / -budget / -precision)
	Format string `json:"format,omitempty"`
	Budget int    `json:"budget,omitempty"`
	// Precision selects the liveness tier: "paper", "flow" (the default
	// when empty, matching pre-knob requests), or "heap".
	Precision string `json:"precision,omitempty"`

	// strip (deadstrip -keep-unreachable)
	KeepUnreachable bool `json:"keep_unreachable,omitempty"`
}

// wireSource is one named MC++ source file.
type wireSource struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// wireOptions carries the analysis options, named after the CLI flag
// values.
type wireOptions struct {
	CallGraph      string   `json:"callgraph,omitempty"`
	Sizeof         string   `json:"sizeof,omitempty"`
	NoDeleteRule   bool     `json:"no_delete_rule,omitempty"`
	TrustDowncasts bool     `json:"trust_downcasts,omitempty"`
	WritesAreUses  bool     `json:"writes_are_uses,omitempty"`
	Library        []string `json:"library,omitempty"`
}

// bundle is a decoded request: the source files plus the option set,
// mirroring the corresponding CLI's flags one for one so a bundle and a
// command line describe the same run.
type bundle struct {
	sources []engine.Source
	opts    deadmember.Options

	// analyze sections (deadmem -v / -classes / -unreachable)
	verbose     bool
	classes     bool
	unreachable bool

	// lint (deadlint -format / -budget / -precision)
	format    string
	budget    int
	precision heaplive.Precision

	// strip (deadstrip -keep-unreachable)
	keepUnreachable bool
}

// parseRequest decodes a request in either transport (see decodeRequest
// for the two wire forms) and validates it into a bundle.
//
// The caller must have wrapped r.Body in http.MaxBytesReader; an
// over-limit body surfaces here as a 413.
func parseRequest(r *http.Request) (*bundle, *httpError) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return nil, badRequest("reading body: %v", err)
	}
	req, err := decodeRequest(r, body)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return bundleFromWire(req)
}

// decodeRequest normalizes the two wire forms of a /v1 request body:
//
//   - Content-Type application/json: one wireRequest object (any number
//     of files, full option set; unknown fields and trailing data
//     rejected);
//   - anything else: the raw body is one source file, named by the
//     ?file= query parameter, with options passed as query parameters
//     named after the CLI flags (callgraph, sizeof, no-delete-rule,
//     trust-downcasts, writes-are-uses, library, v, classes,
//     unreachable, format, budget, precision, keep-unreachable).
//
// Semantic validation (option values, duplicate names) is
// bundleFromWire's job.
func decodeRequest(r *http.Request, body []byte) (*wireRequest, error) {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil && mt == "application/json" {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req wireRequest
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("invalid JSON body: %v", err)
		}
		// A second value or junk after the object would otherwise be
		// dropped without a word.
		if _, err := dec.Token(); err != io.EOF {
			return nil, errors.New("invalid JSON body: data after the request object")
		}
		return &req, nil
	}
	return decodeRawRequest(r, body)
}

func decodeRawRequest(r *http.Request, body []byte) (*wireRequest, error) {
	q := r.URL.Query()
	name := q.Get("file")
	if name == "" {
		name = "input.mcc"
	}
	req := &wireRequest{
		Sources: []wireSource{{Name: name, Text: string(body)}},
		Options: wireOptions{
			CallGraph: q.Get("callgraph"),
			Sizeof:    q.Get("sizeof"),
		},
		Format:    q.Get("format"),
		Precision: q.Get("precision"),
	}
	if lib := q.Get("library"); lib != "" {
		req.Options.Library = strings.Split(lib, ",")
	}
	for _, p := range []struct {
		key  string
		dest *bool
	}{
		{"no-delete-rule", &req.Options.NoDeleteRule},
		{"trust-downcasts", &req.Options.TrustDowncasts},
		{"writes-are-uses", &req.Options.WritesAreUses},
		{"v", &req.Verbose},
		{"classes", &req.Classes},
		{"unreachable", &req.Unreachable},
		{"keep-unreachable", &req.KeepUnreachable},
	} {
		v := q.Get(p.key)
		if v == "" {
			continue
		}
		on, err := strconv.ParseBool(v)
		if err != nil {
			return nil, fmt.Errorf("invalid %s=%q", p.key, v)
		}
		*p.dest = on
	}
	if v := q.Get("budget"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("invalid budget=%q", v)
		}
		req.Budget = n
	}
	return req, nil
}

// bundleFromWire validates a wire request into the internal option set,
// with the same defaults as the CLIs.
func bundleFromWire(req *wireRequest) (*bundle, *httpError) {
	if len(req.Sources) == 0 {
		return nil, badRequest("no sources in request")
	}
	b := &bundle{
		verbose:         req.Verbose,
		classes:         req.Classes,
		unreachable:     req.Unreachable,
		budget:          req.Budget,
		keepUnreachable: req.KeepUnreachable,
	}
	if req.Budget < 0 {
		return nil, badRequest("invalid budget=%d", req.Budget)
	}
	seen := map[string]bool{}
	for i, s := range req.Sources {
		if s.Name == "" {
			return nil, badRequest("sources[%d]: missing name", i)
		}
		if seen[s.Name] {
			return nil, badRequest("duplicate source name %q", s.Name)
		}
		seen[s.Name] = true
		b.sources = append(b.sources, engine.Source{Name: s.Name, Text: s.Text})
	}
	var herr *httpError
	if b.opts, herr = decodeOptions(req.Options); herr != nil {
		return nil, herr
	}
	if b.format, herr = decodeFormat(req.Format); herr != nil {
		return nil, herr
	}
	p, err := heaplive.ParsePrecision(req.Precision)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	b.precision = p
	return b, nil
}

// decodeOptions maps the wire option names (identical to the CLI flag
// values) onto deadmember.Options, with the same defaults as the CLIs.
func decodeOptions(o wireOptions) (deadmember.Options, *httpError) {
	opts := deadmember.Options{
		NoDeleteSpecialCase: o.NoDeleteRule,
		TrustDowncasts:      o.TrustDowncasts,
		WritesAreUses:       o.WritesAreUses,
		LibraryClasses:      o.Library,
	}
	var ok bool
	if opts.CallGraph, ok = callgraph.ParseMode(cmp.Or(o.CallGraph, "rta")); !ok {
		return opts, badRequest("unknown callgraph %q", o.CallGraph)
	}
	if opts.Sizeof, ok = deadmember.ParseSizeof(cmp.Or(o.Sizeof, "ignore")); !ok {
		return opts, badRequest("unknown sizeof %q", o.Sizeof)
	}
	return opts, nil
}

func decodeFormat(format string) (string, *httpError) {
	switch format {
	case "":
		return "text", nil
	case "text", "json", "sarif":
		return format, nil
	default:
		return "", badRequest("unknown format %q", format)
	}
}

// artifactKey is the content address of a rendered response in the
// persist store: a hash of the endpoint, every option that affects the
// rendered bytes, and the compilation fingerprint of the sources. Two
// requests share a key exactly when their responses are byte-identical
// by construction.
func artifactKey(endpoint string, b *bundle) string {
	canon := strings.Join([]string{
		endpoint,
		"cg=" + b.opts.CallGraph.String(),
		"sizeof=" + b.opts.Sizeof.String(),
		fmt.Sprintf("nodelete=%t", b.opts.NoDeleteSpecialCase),
		fmt.Sprintf("downcasts=%t", b.opts.TrustDowncasts),
		fmt.Sprintf("writesareuses=%t", b.opts.WritesAreUses),
		"lib=" + strings.Join(b.opts.LibraryClasses, ","),
		fmt.Sprintf("v=%t", b.verbose),
		fmt.Sprintf("classes=%t", b.classes),
		fmt.Sprintf("unreachable=%t", b.unreachable),
		"format=" + b.format,
		fmt.Sprintf("budget=%d", b.budget),
		"precision=" + b.precision.String(),
		fmt.Sprintf("keepunreachable=%t", b.keepUnreachable),
		"src=" + engine.Fingerprint(b.sources...),
	}, "\x00")
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}
