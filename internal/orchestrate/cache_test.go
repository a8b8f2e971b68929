package orchestrate

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"pcstall/internal/dvfs"
	"pcstall/internal/metrics"
	"pcstall/internal/telemetry"
)

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(3)
	r := &dvfs.Result{
		Policy:    "PCSTALL",
		Objective: "ED2P",
		Totals:    metrics.RunTotals{EnergyJ: 0.1234567890123456, TimeS: 3.3e-5, Committed: 987654321},
		Accuracy:  0.87654321,
		AccuracyN: 12345,
		Residency: []float64{0.1, 0.2, 0.7},
		Epochs:    33,
	}
	if _, err := c.Put(j.Key(), j, r); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	e, ok := c2.entry(j.Key())
	got := e.Result
	if !ok {
		t.Fatal("entry lost across close/open")
	}
	// Floats must round-trip exactly (JSON shortest-repr), or warm-cache
	// reruns would not be byte-identical to cold runs.
	if got.Totals != r.Totals || got.Accuracy != r.Accuracy || got.AccuracyN != r.AccuracyN {
		t.Fatalf("lossy round-trip: %+v vs %+v", got, r)
	}
	for i := range r.Residency {
		if got.Residency[i] != r.Residency[i] {
			t.Fatalf("residency[%d] %v != %v", i, got.Residency[i], r.Residency[i])
		}
	}
	if len(c2.index) != 1 {
		t.Fatalf("len %d", len(c2.index))
	}
}

func TestCacheToleratesCorruptLines(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(1)
	if _, err := c.Put(j.Key(), j, &dvfs.Result{Policy: "X"}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Simulate a torn append from a killed process.
	f, err := os.OpenFile(filepath.Join(dir, ResultsFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"deadbeef","job":{"app":"tru`)
	f.Close()

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.entry(j.Key()); !ok {
		t.Fatal("valid entry lost to corrupt neighbour")
	}
	if len(c2.index) != 1 {
		t.Fatalf("corrupt line loaded: len %d", len(c2.index))
	}
	// And the cache stays appendable after recovery.
	j2 := testJob(2)
	if _, err := c2.Put(j2.Key(), j2, &dvfs.Result{Policy: "Y"}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheRepairsTornTailBeyondScannerBuffer pins the promise the old
// code broke: a torn trailing line longer than the scanner's 16 MiB
// buffer used to make OpenCache fatal, bricking the cache directory.
// Now it is treated as a corrupt tail — entries loaded so far survive
// and the file is truncate-repaired in place.
func TestCacheRepairsTornTailBeyondScannerBuffer(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(1)
	if _, err := c.Put(j.Key(), j, &dvfs.Result{Policy: "X", Epochs: 7}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	path := filepath.Join(dir, ResultsFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A 17 MiB newline-free tail: past the scanner's max token size, the
	// shape a crash mid-append of a huge record leaves behind.
	torn := bytes.Repeat([]byte(`{"key":"torn"`), 17<<20/13)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("corrupt tail bricked the cache: %v", err)
	}
	defer c2.Close()
	if !c2.Repaired() {
		t.Fatal("repair not reported")
	}
	e, ok := c2.entry(j.Key())
	if got := e.Result; !ok || got.Epochs != 7 {
		t.Fatalf("pre-tail entry lost in repair: %+v ok=%v", e, ok)
	}
	// The repair must have physically truncated the corrupt tail.
	if fi, err := os.Stat(path); err != nil || fi.Size() > 1<<20 {
		t.Fatalf("file not repaired: size=%d err=%v", fi.Size(), err)
	}
	// A third open sees a healthy file and loads without repairing.
	c2.Close()
	c3, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.Repaired() || len(c3.index) != 1 {
		t.Fatalf("repaired file unhealthy: repaired=%v len=%d", c3.Repaired(), len(c3.index))
	}
}

// TestCachePutFailureDegrades pins the degrade contract: a persistence
// failure surfaces once, disables further disk writes, and leaves the
// results fully serviceable from memory — the Store pins what the cold
// tier could not take, even with a zero budget that evicts everything
// the disk can serve back.
func TestCachePutFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := newStore(-1, c, nil)
	// Sabotage the append handle out from under the encoder — the shape
	// of a revoked handle or an unwritable disk.
	c.file.Close()
	j := testJob(1)
	persisted, err := c.Put(j.Key(), j, &dvfs.Result{Policy: "X"})
	if err == nil || persisted {
		t.Fatalf("write failure swallowed (persisted=%v err=%v)", persisted, err)
	}
	if c.WriteErr() == nil {
		t.Fatal("write error not recorded")
	}
	st.put(j.Key(), j, &dvfs.Result{Policy: "X"}, nil, !persisted)
	// Later puts degrade silently to memory; lookups keep working.
	j2 := testJob(2)
	if _, err := c.Put(j2.Key(), j2, &dvfs.Result{Policy: "Y"}); err != nil {
		t.Fatalf("degraded put still failing: %v", err)
	}
	st.put(j2.Key(), j2, &dvfs.Result{Policy: "Y"}, nil, true)
	if _, ok := st.Get(j.Key()); !ok {
		t.Fatal("in-memory layer lost the result that failed to persist")
	}
	if _, ok := st.Get(j2.Key()); !ok {
		t.Fatal("in-memory layer lost the post-degrade result")
	}
}

// TestOrchestratorSurvivesCachePutFailure pins the satellite end to
// end: a job whose result cannot be persisted still succeeds, the
// failure lands on telemetry, and the campaign carries on.
func TestOrchestratorSurvivesCachePutFailure(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	run, n := countingRun()
	o, err := New(Config{Workers: 2, CacheDir: dir, Run: run, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	o.cache.file.Close() // first Put will fail and disable disk writes
	res, err := o.RunJobs(context.Background(), []Job{testJob(0), testJob(1)})
	if err != nil {
		t.Fatalf("persistence failure failed the jobs: %v", err)
	}
	if res[0] == nil || res[1] == nil || *n != 2 {
		t.Fatalf("results lost to a disk error: %v %v", res[0], res[1])
	}
	s := reg.Snapshot()
	if s.Counters["orchestrate_cache_write_failures_total"] != 1 {
		t.Fatalf("write failure counted %d times, want 1 (writes disabled after the first)",
			s.Counters["orchestrate_cache_write_failures_total"])
	}
	if s.Counters["orchestrate_job_errors_total"] != 0 {
		t.Fatal("persistence failure mis-counted as a job error")
	}
	o.Close() // closing the sabotaged handle may error; the campaign is already safe
}
