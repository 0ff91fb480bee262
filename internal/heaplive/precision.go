// Package heaplive names the precision tiers of the flow-sensitive
// checks. The analyses behind the flow and heap tiers live in
// internal/lint, which serves both from one store-liveness core; this
// package holds only the tier names that the CLIs, the engine, the
// server and the reports share.
package heaplive

import "fmt"

// Precision selects the liveness tier of the flow-sensitive checks — the
// `-precision=` knob threaded through the CLIs, the server wire types,
// and the engine. Three tiers, in increasing precision and cost:
//
//   - paper: the flow-insensitive analysis of Sweeney & Tip only; the
//     dead-store dataflow pass is skipped, so deadlint reports only the
//     write-only-member corroboration of the paper's dead set.
//   - flow: per-function CFGs plus backward may-liveness of length-one
//     access paths (base.field).
//   - heap: flow plus access-graph heap liveness, which tracks bounded
//     multi-field access paths (a.b.c, p->next->val), so chained stores
//     invisible to the flow tier become checkable.
//
// Findings are monotone across tiers by construction:
// paper ⊆ flow ⊆ heap.
//
// The zero value is PrecisionFlow: the tier every pre-knob release ran
// at, so an unset Options field keeps historical behaviour and wire
// requests that omit "precision" stay byte-identical to old responses.
type Precision int

const (
	// PrecisionFlow is the default tier (zero value): flow-sensitive
	// dead-store detection over length-one access paths.
	PrecisionFlow Precision = iota

	// PrecisionPaper restricts findings to the paper-faithful
	// flow-insensitive analysis (write-only-member corroboration only).
	PrecisionPaper

	// PrecisionHeap adds the access-graph heap liveness pass on top of
	// the flow tier.
	PrecisionHeap
)

// String names the tier the way the CLI flag and wire field spell it.
func (p Precision) String() string {
	switch p {
	case PrecisionPaper:
		return "paper"
	case PrecisionHeap:
		return "heap"
	default:
		return "flow"
	}
}

// Rank orders tiers by precision: paper < flow < heap. Tests use it to
// assert findings monotonicity; the constant values themselves are
// ordered for zero-value compatibility, not precision.
func (p Precision) Rank() int {
	switch p {
	case PrecisionPaper:
		return 0
	case PrecisionHeap:
		return 2
	default:
		return 1
	}
}

// Tiers lists the precision tiers in Rank order.
func Tiers() [3]Precision {
	return [3]Precision{PrecisionPaper, PrecisionFlow, PrecisionHeap}
}

// ParsePrecision maps a CLI/wire spelling onto a tier. The empty string
// selects the default (flow), matching pre-knob requests.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "flow":
		return PrecisionFlow, nil
	case "paper":
		return PrecisionPaper, nil
	case "heap":
		return PrecisionHeap, nil
	}
	return PrecisionFlow, fmt.Errorf("unknown precision %q (want paper, flow, or heap)", s)
}
