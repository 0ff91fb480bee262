package heaplive

import (
	"deadmembers/internal/cfg"
	"deadmembers/internal/types"
)

// AnalyzeFull is Analyze without its early exit: it always numbers the
// path universe, and also returns the universe's size.
func AnalyzeFull(info *types.Info, g *cfg.Graph, acc Accesses, call Summary, sup map[*types.Field]bool, opts Options) ([]DeadStore, int, error) {
	a := newAnalysis(info, g, acc, sup, opts)
	if a == nil {
		return nil, 0, nil
	}
	stores, err := a.run(call, opts)
	return stores, len(a.paths), err
}
