package dvfs_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// truthRun runs one small truth-consuming design and returns its Result
// rendered to bytes.
func truthRun(t *testing.T, design, app string) []byte {
	t.Helper()
	gen := workload.DefaultGenConfig(4)
	gen.Scale = 0.2
	a := workload.MustBuild(app, gen)
	g, err := sim.New(sim.DefaultConfig(4), a.Kernels, a.Launches)
	if err != nil {
		t.Error(err)
		return nil
	}
	d, err := core.DesignByName(design)
	if err != nil {
		t.Error(err)
		return nil
	}
	pm := power.DefaultModelFor(4)
	res, err := dvfs.Run(g, d.New(), dvfs.RunConfig{Epoch: clock.Microsecond, Obj: dvfs.ED2P, PM: &pm, Record: true})
	if err != nil {
		t.Error(err)
		return nil
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Error(err)
	}
	return b
}

// TestConcurrentTruthRunsMatchSerial: two truth-consuming runs executing
// at once share the idle cores their oracle forks fan out onto; each must
// still settle to exactly its serial Result.
func TestConcurrentTruthRunsMatchSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	runs := []struct{ design, app string }{{"ORACLE", "comd"}, {"ACCPC", "xsbench"}}
	want := make([][]byte, len(runs))
	for i, r := range runs {
		want[i] = truthRun(t, r.design, r.app)
	}
	got := make([][]byte, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = truthRun(t, r.design, r.app)
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if len(want[i]) == 0 || !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s/%s: concurrent Result differs from the serial one", r.design, r.app)
		}
	}
}
