package sim_test

import (
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// Microbenchmarks for the simulator substrate itself (simulation rate,
// snapshot cost). The paper-figure benchmarks live at the repository
// root.

func benchGPU(b *testing.B, app string, cus int) *sim.GPU {
	b.Helper()
	cfg := sim.DefaultConfig(cus)
	a := workload.MustBuild(app, workload.DefaultGenConfig(cus))
	g, err := sim.New(cfg, a.Kernels, a.Launches)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkSimulate measures simulation throughput: wall time per 50µs of
// simulated time on an 8-CU GPU.
func BenchmarkSimulate(b *testing.B) {
	for _, app := range []string{"comd", "xsbench", "hpgmg", "dgemm"} {
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := benchGPU(b, app, 8)
				g.RunUntil(50 * clock.Microsecond)
			}
		})
	}
}

// BenchmarkClone measures the snapshot cost the fork-pre-execute oracle
// pays per sample.
func BenchmarkClone(b *testing.B) {
	g := benchGPU(b, "comd", 8)
	g.RunUntil(20 * clock.Microsecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Clone()
	}
}

// BenchmarkCloneInto measures the same snapshot written into a reused,
// released fork: what the oracle's fork arena pays per sample.
func BenchmarkCloneInto(b *testing.B) {
	g := benchGPU(b, "comd", 8)
	g.RunUntil(20 * clock.Microsecond)
	f := g.Clone()
	f.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = g.CloneInto(f)
		f.Release()
	}
}

// BenchmarkEpochCollect measures the per-boundary counter collection.
func BenchmarkEpochCollect(b *testing.B) {
	g := benchGPU(b, "comd", 8)
	var es sim.EpochSample
	for i := 0; i < b.N; i++ {
		g.RunUntil(g.Now + clock.Microsecond)
		g.CollectEpoch(&es)
		if g.Finished {
			b.StopTimer()
			g = benchGPU(b, "comd", 8)
			b.StartTimer()
		}
	}
}

// BenchmarkEpochHotPath measures one steady-state epoch step — RunUntil,
// CollectEpoch, and the per-domain ActivePCs lookup a PC-based policy
// performs — after a warm-up epoch has sized every reused buffer. The
// ci.sh allocation gate pins allocs/op at zero: nothing on this path may
// allocate once buffers have reached steady state.
func BenchmarkEpochHotPath(b *testing.B) {
	for _, app := range []string{"comd", "xsbench"} {
		b.Run(app, func(b *testing.B) {
			g := benchGPU(b, app, 8)
			var es sim.EpochSample
			var pcs []sim.WavePC
			step := func() {
				g.RunUntil(g.Now + clock.Microsecond)
				g.CollectEpoch(&es)
				for d := 0; d < g.Cfg.Domains.NumDomains(); d++ {
					pcs = g.ActivePCs(d, pcs[:0])
				}
			}
			step() // warm-up: size es, pcs, and internal buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
				if g.Finished {
					b.StopTimer()
					g = benchGPU(b, app, 8)
					step()
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkJobSetup measures what one job pays to stand up and tear down
// its simulator: build a GPU, run a short span, Release it. After one
// warm-up job the cache tag arrays come from the pools the previous job
// released into, so B/op is the setup cost a long-running server pays
// per request; ci.sh gates it.
func BenchmarkJobSetup(b *testing.B) {
	cfg := sim.DefaultConfig(4)
	a := workload.MustBuild("comd", workload.DefaultGenConfig(4))
	job := func() {
		g, err := sim.New(cfg, a.Kernels, a.Launches)
		if err != nil {
			b.Fatal(err)
		}
		g.RunUntil(clock.Microsecond)
		g.Release()
	}
	job()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
}
