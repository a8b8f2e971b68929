package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"pcstall/internal/exp"
	"pcstall/internal/orchestrate"
	"pcstall/internal/telemetry"
)

// TestSoakBoundedMemory drives thousands of fresh-key simulations
// through an in-process server with a cache directory and holds it to
// the robustness bar for a long-running pcstall-serve:
//
//   - heap in use after 2N requests exceeds heap after N by no more than
//     a small allowance per job, once the bytes the byte-bounded result
//     store reports holding are set aside (the store's own bound is
//     pinned by the body-cache tests);
//   - after drain, manifest and close, goroutines and open files are
//     back at their baseline, and the manifest lists every job.
//
// What may still grow per job is the cold tier's and the manifest
// journal's key→offset indexes and the bounded job-status map; a memo,
// manifest or cache layer that keeps whole records per job shows up as
// kilobytes per job.
func TestSoakBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs thousands of simulations")
	}
	const (
		n      = 4096 // the job-status map (maxSettledJobs) is full from here on
		perJob = 1024 // bytes of heap growth per job outside the store
	)
	baseGoroutines := runtime.NumGoroutine()
	baseFDs := openFDs()

	reg := telemetry.New()
	cfg := exp.DefaultConfig()
	cfg.CUs = 2
	cfg.Scale = 0.25
	cfg.Apps = []string{"comd"}
	cfg.CacheDir = t.TempDir()
	cfg.Metrics = reg
	suite := exp.NewSuite(cfg)
	s, err := New(Config{
		Backend:   suite,
		Defaults:  suite.SimDefaults(),
		FigureIDs: suite.ArtifactIDs(),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	seed := uint64(1 << 20)
	drive := func(k int) {
		for i := 0; i < k; i++ {
			seed++
			w := postSim(t, h, fmt.Sprintf(`{"app":"comd","design":"PCSTALL","seed":%d,"max_time_ms":0.003}`, seed))
			if w.Code != 200 {
				t.Fatalf("request %d: status %d: %s", seed, w.Code, w.Body.String())
			}
		}
	}
	// unaccounted is the live heap minus what the result store reports
	// holding (the body-cache gauge on builds whose store is bodies only).
	unaccounted := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		g := reg.Snapshot().Gauges
		return int64(m.HeapAlloc) - int64(max(g["orchestrate_store_bytes"], g["serve_body_cache_bytes"]))
	}
	drive(n)
	h1 := unaccounted()
	drive(n)
	h2 := unaccounted()
	if growth := (h2 - h1) / n; growth > perJob {
		t.Errorf("heap grew %d bytes per job between %d and %d requests (outside the result store), want <= %d",
			growth, n, 2*n, perJob)
	} else {
		t.Logf("heap growth outside the result store: %d bytes per job", growth)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cfg.CacheDir, "manifest.json")
	if err := suite.WriteManifest(path); err != nil {
		t.Fatal(err)
	}
	if err := suite.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m orchestrate.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) != 2*n || m.Misses != 2*n {
		t.Errorf("manifest lists %d jobs (%d misses), want %d", len(m.Jobs), m.Misses, 2*n)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseGoroutines {
		t.Errorf("goroutines: %d after drain, %d at baseline", g, baseGoroutines)
	}
	if fds := openFDs(); fds != baseFDs {
		t.Errorf("open files: %d after drain, %d at baseline", fds, baseFDs)
	}
}

// openFDs counts this process's open file descriptors (-1 where the
// platform does not expose them).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
