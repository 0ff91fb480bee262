package lint

import (
	"testing"

	"deadmembers/internal/deadmember"
	"deadmembers/internal/types"
)

// EarlyExit runs the heap tier's pass over f with nothing suppressed
// and empty callee summaries. It reports whether f has a CFG, whether
// the pass asked for the write summaries, how many candidate paths it
// numbers, what it found, and how often numbering f allocates.
func EarlyExit(ar *deadmember.Result, f *types.Func) (ok, asked bool, paths int, stores []Finding, allocs float64, err error) {
	fp := heapPass(ar, f)
	if fp.g == nil {
		return false, false, 0, nil, 0, nil
	}
	stores, err = fp.deadStores(func() *calleeSet { asked = true; return &calleeSet{} })
	s := &storePass{funcPass: fp, heap: true}
	s.number()
	allocs = testing.AllocsPerRun(1, func() { (&storePass{funcPass: fp, heap: true}).number() })
	return true, asked, len(s.paths), stores, allocs, err
}
