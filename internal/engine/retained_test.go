package engine_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/engine"
)

// generated returns the analyze-scaled generator's program of the given
// class count.
func generated(classes int) engine.Source {
	text, _ := bench.Generate(bench.Spec{
		Name: "gen", Description: "generated program",
		Classes: classes, UsedClasses: classes * 3 / 4, Members: classes * 4,
		DeadPercent: 10, Allocations: 10, RetainMod: 1, DeadHeavyClasses: 3,
		Seed: uint64(classes),
	})
	return engine.Source{Name: fmt.Sprintf("gen%d.mcc", classes), Text: text}
}

// heapAfterGC returns the live heap once a full collection has run.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRetainedEstimate holds Compilation.RetainedBytes to the heap a
// compilation really retains: compile several copies of one generated
// program, each from its own copy of the source text (as a server
// request owns its body), keep them alive, and divide the live-heap
// growth by the copy count. The estimate is a calibrated constant per
// parser node plus the source bytes, so it must stay within a factor of
// 1.5 of the measurement at every size.
func TestRetainedEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the heap of 24 compilations")
	}
	const copies = 8
	for _, classes := range []int{25, 100, 400} {
		src := generated(classes)
		keep := make([]*engine.Compilation, copies)
		before := heapAfterGC()
		for i := range keep {
			own := engine.Source{Name: src.Name, Text: strings.Clone(src.Text)}
			keep[i] = engine.Compile(engine.Config{}, own)
			if err := keep[i].Err(); err != nil {
				t.Fatal(err)
			}
		}
		measured := float64(heapAfterGC()-before) / copies
		est := float64(keep[0].RetainedBytes())
		runtime.KeepAlive(keep)
		t.Logf("%d classes: %d source bytes, estimate %.0f KB, measured %.0f KB (ratio %.2f)",
			classes, len(src.Text), est/1024, measured/1024, est/measured)
		if est < measured/1.5 || est > measured*1.5 {
			t.Errorf("%d classes: estimate %.0f bytes, measured %.0f: recalibrate bytesPerNode",
				classes, est, measured)
		}
	}
}
