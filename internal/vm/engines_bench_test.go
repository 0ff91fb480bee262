package vm_test

import (
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/engine"
	"deadmembers/internal/interp"
	"deadmembers/internal/vm"
)

// Throughput of the VM against its tree-walker oracle on the paper
// corpus's sched (the most allocation-heavy benchmark). Run with -bench
// to compare:
//
//	go test ./internal/vm -bench 'Sched' -benchtime 3x
func BenchmarkTreeSched(b *testing.B) {
	bm, _ := bench.ByName("sched")
	c := engine.Compile(engine.Config{}, bm.Sources...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interp.Run(c.Program, c.Hierarchy, interp.Options{})
	}
}

func BenchmarkVMSched(b *testing.B) {
	bm, _ := bench.ByName("sched")
	c := engine.Compile(engine.Config{}, bm.Sources...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := vm.NewExecutor(c.Program, c.Hierarchy)
		interp.Run(c.Program, c.Hierarchy, interp.Options{Executor: ex})
	}
}
