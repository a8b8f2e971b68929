package dvfs_test

import (
	"runtime"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/dvfs"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// BenchmarkPCStallEpoch measures the steady-state allocations of one
// PCSTALL epoch inside dvfs.Run: a run of warm+b.N epochs minus a run of
// warm epochs, so per-run setup (GPU, policy tables, result) cancels
// out. It reports allocs/epoch, which ci.sh gates below one: nothing a
// PCSTALL epoch does — sample, estimate, table update, prediction,
// governor — may allocate once its buffers are sized.
func BenchmarkPCStallEpoch(b *testing.B) {
	const warm = 16
	simCfg := sim.DefaultConfig(4)
	gen := workload.DefaultGenConfig(4)
	gen.Scale = 2 // long enough that the app outlives the measured epochs
	app := workload.MustBuild("comd", gen)
	pm := power.DefaultModelFor(4)
	run := func(epochs int) (mallocs uint64, n int) {
		g, err := sim.New(simCfg, app.Kernels, app.Launches)
		if err != nil {
			b.Fatal(err)
		}
		defer g.Release()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := dvfs.Run(g, dvfs.NewPCStall(), dvfs.RunConfig{
			Epoch:   clock.Microsecond,
			Obj:     dvfs.ED2P,
			PM:      &pm,
			MaxTime: clock.Time(epochs) * clock.Microsecond,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			b.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, res.Epochs
	}
	run(warm) // size the tag pools
	base, baseN := run(warm)
	b.ResetTimer()
	total, n := run(warm + b.N)
	b.StopTimer()
	if n <= baseN {
		b.Fatalf("app finished within the warm-up (%d epochs)", n)
	}
	b.ReportMetric(float64(total-base)/float64(n-baseN), "allocs/epoch")
}
