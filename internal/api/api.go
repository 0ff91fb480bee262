// Package api defines the JSON wire types of deadmemd's /v1 endpoints,
// shared by the server (internal/server) and the Go client
// (internal/client) so the two cannot drift. Field names mirror the CLI
// flags one for one: a Request and a command line describe the same run,
// and the response body is byte-identical to that command's stdout.
package api

// Request is the POST body for /v1/analyze, /v1/lint, and /v1/strip.
// Endpoint-specific fields are simply ignored by the other endpoints'
// CLIs' option sets (the server validates shared fields uniformly).
type Request struct {
	Sources []Source `json:"sources"`
	Options Options  `json:"options"`

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

// Source is one named MC++ source file.
type Source struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// Options carries the analysis options, named after the CLI flag values.
type Options struct {
	CallGraph      string   `json:"callgraph,omitempty"`
	Sizeof         string   `json:"sizeof,omitempty"`
	NoDeleteRule   bool     `json:"no_delete_rule,omitempty"`
	TrustDowncasts bool     `json:"trust_downcasts,omitempty"`
	WritesAreUses  bool     `json:"writes_are_uses,omitempty"`
	Library        []string `json:"library,omitempty"`
}

// DegradedHeader is set to "true" on responses rendered from a run in
// which a pipeline stage panicked and was contained.
const DegradedHeader = "X-Deadmemd-Degraded"
