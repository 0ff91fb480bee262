package cfg

import "fmt"

// CheckInvariants verifies the structural guarantees every graph
// promises: dense creation-order IDs, entry first and exit last, edge
// symmetry, a reachable entry, an exit with no successors, non-nil
// atoms, and block atom lists that are windows of the atom slab, which
// together they cover. It returns the first violation found, or nil.
// The unit tests and the FuzzCFG target at the repository root both
// lean on it.
func (g *Graph) CheckInvariants() error {
	qn := g.Fn.QualifiedName()
	if len(g.Blocks) == 0 {
		return fmt.Errorf("%s: graph with no blocks", qn)
	}
	if g.Entry != g.Blocks[0] {
		return fmt.Errorf("%s: entry is not block 0", qn)
	}
	if g.Exit != g.Blocks[len(g.Blocks)-1] {
		return fmt.Errorf("%s: exit is not the last block", qn)
	}
	if !g.Entry.Reachable {
		return fmt.Errorf("%s: entry unreachable", qn)
	}
	if len(g.Exit.Succs) != 0 {
		return fmt.Errorf("%s: exit has successors", qn)
	}
	atoms := 0
	for i, b := range g.Blocks {
		if b.ID != i {
			return fmt.Errorf("%s: block at index %d has ID %d", qn, i, b.ID)
		}
		for _, n := range b.Nodes {
			if n == nil {
				return fmt.Errorf("%s: B%d has a nil atom", qn, b.ID)
			}
		}
		if n := len(b.Nodes); n > 0 {
			atoms += n
			if b.Start+n > len(g.Atoms) || &g.Atoms[b.Start] != &b.Nodes[0] {
				return fmt.Errorf("%s: B%d's atoms are not the slab's window at %d", qn, b.ID, b.Start)
			}
		}
		for _, s := range b.Succs {
			if !hasBlock(s.Preds, b) {
				return fmt.Errorf("%s: edge B%d->B%d missing from preds", qn, b.ID, s.ID)
			}
		}
		for _, p := range b.Preds {
			if !hasBlock(p.Succs, b) {
				return fmt.Errorf("%s: pred edge B%d->B%d missing from succs", qn, p.ID, b.ID)
			}
		}
	}
	if atoms != len(g.Atoms) {
		return fmt.Errorf("%s: blocks hold %d atoms, the slab %d", qn, atoms, len(g.Atoms))
	}
	return nil
}

func hasBlock(bs []*Block, want *Block) bool {
	for _, b := range bs {
		if b == want {
			return true
		}
	}
	return false
}
