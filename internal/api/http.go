package api

import (
	"encoding/json"
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"strings"
)

// FromHTTP decodes a /v1 analysis request body in either transport into
// a Request. It is the server's one decoder for both wire forms:
//
//   - Content-Type application/json: a Request bundle (any number of
//     files, full option set; unknown fields rejected);
//   - anything else: the raw body is one source file, named by the
//     ?file= query parameter, with options passed as query parameters
//     named after the CLI flags (callgraph, sizeof, no-delete-rule,
//     trust-downcasts, writes-are-uses, library, v, classes,
//     unreachable, format, budget, precision, keep-unreachable).
//
// Semantic validation (option values, duplicate names) is the caller's
// job; FromHTTP only normalizes the transport.
func FromHTTP(r *http.Request, body []byte) (*Request, error) {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil && mt == "application/json" {
		dec := json.NewDecoder(strings.NewReader(string(body)))
		dec.DisallowUnknownFields()
		var req Request
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("invalid JSON body: %v", err)
		}
		return &req, nil
	}
	return fromRawHTTP(r, body)
}

func fromRawHTTP(r *http.Request, body []byte) (*Request, error) {
	q := r.URL.Query()
	name := q.Get("file")
	if name == "" {
		name = "input.mcc"
	}
	req := &Request{
		Sources: []Source{{Name: name, Text: string(body)}},
		Options: Options{
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
