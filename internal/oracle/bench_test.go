package oracle_test

import (
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/oracle"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// BenchmarkSampleNext measures the full fork-pre-execute cost of one
// oracle sampling sweep (one fork per V/f state, each pre-executing a
// 1µs epoch) on a warmed-up 8-CU GPU. This is the per-epoch price every
// truth-consuming policy (ACC, ACCPC, sample-count ablations) pays, and
// the number BENCH_sim.json tracks for the CoW snapshot work. One
// untimed call first fills the sampler's fork arena, so the timed loop
// (and the ci.sh alloc gate) sees steady state.
func BenchmarkSampleNext(b *testing.B) {
	for _, app := range []string{"dgemm", "xsbench"} {
		b.Run(app, func(b *testing.B) {
			cfg := sim.DefaultConfig(8)
			a := workload.MustBuild(app, workload.DefaultGenConfig(8))
			g, err := sim.New(cfg, a.Kernels, a.Launches)
			if err != nil {
				b.Fatal(err)
			}
			g.RunUntil(10 * clock.Microsecond)
			pm := power.DefaultModelFor(8)
			s := &oracle.Sampler{Grid: cfg.Grid, PM: &pm}
			_ = s.SampleNext(g, clock.Microsecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.SampleNext(g, clock.Microsecond)
			}
		})
	}
}
