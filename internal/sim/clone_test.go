package sim_test

import (
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

func mustGPU(t *testing.T, appName string, cus int) *sim.GPU {
	t.Helper()
	cfg := sim.DefaultConfig(cus)
	app := workload.MustBuild(appName, workload.DefaultGenConfig(cus))
	g, err := sim.New(cfg, app.Kernels, app.Launches)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCloneDeterminism is the oracle's core requirement: a clone must
// execute identically to its parent when driven by the same frequency
// schedule.
func TestCloneDeterminism(t *testing.T) {
	for _, name := range []string{"comd", "xsbench", "dgemm", "quickS"} {
		t.Run(name, func(t *testing.T) {
			g := mustGPU(t, name, 2)
			g.RunUntil(30 * clock.Microsecond)

			c := g.Clone()
			limit := g.Now + 40*clock.Microsecond
			g.RunUntil(limit)
			c.RunUntil(limit)

			if g.Now != c.Now {
				t.Fatalf("Now diverged: %d vs %d", g.Now, c.Now)
			}
			if g.TotalCommitted != c.TotalCommitted {
				t.Fatalf("TotalCommitted diverged: %d vs %d", g.TotalCommitted, c.TotalCommitted)
			}
			if g.Finished != c.Finished {
				t.Fatalf("Finished diverged: %v vs %v", g.Finished, c.Finished)
			}
			var a, b sim.EpochSample
			g.CollectEpoch(&a)
			c.CollectEpoch(&b)
			for i := range a.CUs {
				if a.CUs[i].C != b.CUs[i].C {
					t.Fatalf("CU %d counters diverged:\n%+v\n%+v", i, a.CUs[i].C, b.CUs[i].C)
				}
				if len(a.CUs[i].WFs) != len(b.CUs[i].WFs) {
					t.Fatalf("CU %d wavefront record count diverged", i)
				}
				for j := range a.CUs[i].WFs {
					if a.CUs[i].WFs[j] != b.CUs[i].WFs[j] {
						t.Fatalf("CU %d WF %d diverged:\n%+v\n%+v", i, j, a.CUs[i].WFs[j], b.CUs[i].WFs[j])
					}
				}
			}
		})
	}
}

// TestCloneIsolation verifies that running a clone does not perturb the
// parent.
func TestCloneIsolation(t *testing.T) {
	g := mustGPU(t, "comd", 2)
	g.RunUntil(20 * clock.Microsecond)
	before := g.TotalCommitted
	now := g.Now

	c := g.Clone()
	c.SetDomainFreq(0, 2200, clock.TransitionLatency(clock.Microsecond))
	c.RunUntil(c.Now + 50*clock.Microsecond)

	if g.TotalCommitted != before || g.Now != now {
		t.Fatalf("parent perturbed by clone run: committed %d->%d now %d->%d",
			before, g.TotalCommitted, now, g.Now)
	}
	g.RunUntil(g.Now + clock.Microsecond)
	if g.TotalCommitted <= before {
		t.Fatal("parent stopped making progress after clone ran")
	}
}

// TestFrequencyScalesComputeBoundWork checks the physical premise of the
// whole paper: a compute-bound workload commits more instructions per
// fixed-time epoch at a higher frequency, while a memory-bound one barely
// changes.
func TestFrequencyScalesComputeBoundWork(t *testing.T) {
	rate := func(name string, f clock.Freq) float64 {
		cfg := sim.DefaultConfig(2)
		cfg.InitFreq = f
		app := workload.MustBuild(name, workload.DefaultGenConfig(2))
		g, err := sim.New(cfg, app.Kernels, app.Launches)
		if err != nil {
			t.Fatal(err)
		}
		g.RunUntil(100 * clock.Microsecond) // apps may finish earlier
		return float64(g.TotalCommitted) / float64(g.Now)
	}

	dgemmGain := rate("dgemm", 2200) / rate("dgemm", 1300)
	xsGain := rate("xsbench", 2200) / rate("xsbench", 1300)
	t.Logf("dgemm gain %.3f, xsbench gain %.3f (freq ratio %.3f)", dgemmGain, xsGain, 2200.0/1300.0)

	if dgemmGain < 1.3 {
		t.Errorf("dgemm (compute-bound) gained only %.3f from 1.3->2.2 GHz", dgemmGain)
	}
	if xsGain > 1.25 {
		t.Errorf("xsbench (memory-bound) gained %.3f from 1.3->2.2 GHz; expected near-flat", xsGain)
	}
	if xsGain >= dgemmGain {
		t.Errorf("memory-bound app scaled more than compute-bound app (%.3f >= %.3f)", xsGain, dgemmGain)
	}
}

// TestCloneIntoReusesReleasedFork: CloneInto over a released fork — one
// that ran far ahead of its parent, or was cloned from a different
// workload, so its reused slices hold stale state of other shapes — must
// execute exactly like a fresh Clone of the same parent.
func TestCloneIntoReusesReleasedFork(t *testing.T) {
	for _, name := range []string{"comd", "xsbench"} {
		t.Run(name, func(t *testing.T) {
			g := mustGPU(t, name, 2)
			g.RunUntil(20 * clock.Microsecond)
			other := mustGPU(t, "dgemm", 2)
			other.RunUntil(15 * clock.Microsecond)

			stale := []*sim.GPU{g.Clone(), other.Clone()}
			for _, f := range stale {
				f.SetDomainFreq(1, 2200, 0)
				f.RunUntil(f.Now + 30*clock.Microsecond)
				f.Release()
			}
			g.RunUntil(g.Now + 5*clock.Microsecond)

			for i, f := range stale {
				reused := g.CloneInto(f)
				if reused != f {
					t.Fatalf("fork %d: CloneInto returned a new GPU instead of reusing dst", i)
				}
				fresh := g.Clone()
				for _, c := range []*sim.GPU{reused, fresh} {
					c.ResetEpoch()
					c.SetDomainFreq(0, 1300, 0)
					c.RunUntil(c.Now + 10*clock.Microsecond)
				}
				var a, b sim.EpochSample
				reused.CollectEpoch(&a)
				fresh.CollectEpoch(&b)
				if reused.Now != fresh.Now || reused.TotalCommitted != fresh.TotalCommitted {
					t.Fatalf("fork %d: reused clone diverged: now %d/%d committed %d/%d",
						i, reused.Now, fresh.Now, reused.TotalCommitted, fresh.TotalCommitted)
				}
				for cu := range a.CUs {
					if a.CUs[cu].C != b.CUs[cu].C || len(a.CUs[cu].WFs) != len(b.CUs[cu].WFs) {
						t.Fatalf("fork %d: CU %d diverged:\n%+v\n%+v", i, cu, a.CUs[cu].C, b.CUs[cu].C)
					}
					for j := range a.CUs[cu].WFs {
						if a.CUs[cu].WFs[j] != b.CUs[cu].WFs[j] {
							t.Fatalf("fork %d: CU %d WF %d diverged", i, cu, j)
						}
					}
				}
				reused.Release()
				fresh.Release()
			}
		})
	}
}
