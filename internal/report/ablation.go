package report

import (
	"fmt"
	"strings"

	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
)

// AblationRow records the dead-member count for one benchmark under each
// analysis variant.
type AblationRow struct {
	Name string

	// Call-graph precision (paper §3.1 discusses how a more accurate
	// call graph finds more dead members).
	DeadALL int
	DeadCHA int
	DeadRTA int

	// sizeof policy (paper §3.2).
	DeadSizeofConservative int

	// delete/free special case off (paper §3's footnote rule).
	DeadNoDeleteRule int

	// writes treated as uses: quantifies §2's claim that without the
	// write/read distinction "very few data members would be dead".
	DeadWritesAreUses int

	Members int
}

// RunAblations analyzes every corpus benchmark under each variant.
func RunAblations() ([]*AblationRow, error) {
	return RunAblationsIn(engine.NewSession(engine.Config{}))
}

// RunAblationsIn runs the sweep against a shared engine session: each
// benchmark is compiled exactly once (or not at all, if the session
// already holds it from an earlier collection), and the four RTA-mode
// variants share one cached call graph. Liveness is cached per options,
// so the plain RTA variant reuses an earlier collection's analysis.
func RunAblationsIn(s *engine.Session) ([]*AblationRow, error) {
	var out []*AblationRow
	for _, b := range bench.All() {
		c, err := b.Compile(s)
		if err != nil {
			return nil, err
		}
		row := &AblationRow{Name: b.Name}
		for _, v := range ablationVariants(row) {
			res := c.Analyze(v.opts)
			st := res.Stats()
			*v.dst = st.DeadMembers
			row.Members = st.Members
		}
		out = append(out, row)
	}
	return out, nil
}

// ablationVariant pairs one analysis configuration with the row field it
// fills in.
type ablationVariant struct {
	opts deadmember.Options
	dst  *int
}

// ablationVariants is the sweep's variant list, wired to a row's fields.
func ablationVariants(row *AblationRow) []ablationVariant {
	return []ablationVariant{
		{deadmember.Options{CallGraph: callgraph.ALL}, &row.DeadALL},
		{deadmember.Options{CallGraph: callgraph.CHA}, &row.DeadCHA},
		{deadmember.Options{CallGraph: callgraph.RTA}, &row.DeadRTA},
		{deadmember.Options{CallGraph: callgraph.RTA, Sizeof: deadmember.SizeofConservative}, &row.DeadSizeofConservative},
		{deadmember.Options{CallGraph: callgraph.RTA, NoDeleteSpecialCase: true}, &row.DeadNoDeleteRule},
		{deadmember.Options{CallGraph: callgraph.RTA, WritesAreUses: true}, &row.DeadWritesAreUses},
	}
}

// AblationTable renders the ablation results: how many dead members each
// variant finds. Monotonicity ALL ≤ CHA ≤ RTA must hold (a more precise
// call graph can only find more dead members), and disabling the
// delete/free rule or making sizeof conservative can only find fewer.
func AblationTable(rows []*AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablations: dead members found per analysis variant\n")
	fmt.Fprintf(&b, "%-10s %8s  %6s %6s %6s  %14s %14s %12s\n",
		"benchmark", "members", "ALL", "CHA", "RTA", "RTA+szof-cons", "RTA-no-delete", "writes=uses")
	b.WriteString(strings.Repeat("-", 92) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d  %6d %6d %6d  %14d %14d %12d\n",
			r.Name, r.Members, r.DeadALL, r.DeadCHA, r.DeadRTA,
			r.DeadSizeofConservative, r.DeadNoDeleteRule, r.DeadWritesAreUses)
	}
	b.WriteString("\nRTA is the paper's configuration; ALL treats every function as\n")
	b.WriteString("reachable (so reads in unreachable code keep members alive); the other\n")
	b.WriteString("variants disable individual rules. The writes=uses column quantifies\n")
	b.WriteString("the paper's §2 claim: counting initialization as a use leaves almost\n")
	b.WriteString("no member dead.\n")
	return b.String()
}
