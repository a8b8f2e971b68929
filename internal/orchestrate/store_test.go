package orchestrate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"pcstall/internal/dvfs"
	"pcstall/internal/telemetry"
)

// TestStoreEvictsOnlyWhatColdTierServes: under a zero budget the Store
// drops every record the cold tier holds and reads it back on demand,
// while records the disk cannot serve — and failures — stay pinned.
func TestStoreEvictsOnlyWhatColdTierServes(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := newStore(-1, c, nil)
	onDisk, inMem, failed := testJob(1), testJob(2), testJob(3)
	if _, err := c.Put(onDisk.Key(), onDisk, &dvfs.Result{Epochs: 7}); err != nil {
		t.Fatal(err)
	}
	s.put(onDisk.Key(), onDisk, &dvfs.Result{Epochs: 7}, nil, false)
	s.put(inMem.Key(), inMem, &dvfs.Result{Epochs: 8}, nil, true)
	s.put(failed.Key(), failed, nil, errors.New("boom"), true)

	st := s.Stats()
	if st.Entries != 2 || st.Bytes != st.PinnedBytes || st.Evictions != 1 {
		t.Fatalf("zero budget kept %+v, want only the two pinned entries", st)
	}
	got, ok := s.Get(onDisk.Key())
	if !ok || got.Result.Epochs != 7 || got.Job != onDisk {
		t.Fatalf("evicted record not served back from the cold tier: %+v ok=%v", got, ok)
	}
	if got, ok := s.Get(inMem.Key()); !ok || got.Result.Epochs != 8 {
		t.Fatalf("pinned record lost: %+v ok=%v", got, ok)
	}
	if _, ok := s.Get(failed.Key()); ok {
		t.Fatal("a failure read as a settled result")
	}
	if st := s.settled(failed.Key()); st.Err == nil {
		t.Fatal("failure not kept for the orchestrator")
	}
}

// TestStoreBodyBesideRecord: a body attached to a pinned record can be
// evicted on its own; the record stays and the entry is no longer an
// eviction candidate.
func TestStoreBodyBesideRecord(t *testing.T) {
	s := NewStore(100, nil)
	j := testJob(1)
	s.put(j.Key(), j, &dvfs.Result{}, nil, true)
	s.Attach(j.Key(), make([]byte, 80), "d")
	if got, ok := s.Get(j.Key()); !ok || len(got.Body) != 80 || got.Result == nil {
		t.Fatalf("record and body not held together: %+v", got)
	}
	s.Attach("other", make([]byte, 80), "d")
	got, ok := s.Get(j.Key())
	if !ok || got.Body != nil || got.Result == nil {
		t.Fatalf("want the body evicted and the pinned record kept: %+v ok=%v", got, ok)
	}
	if st := s.Stats(); st.Bodies != 1 || st.BodyEvictions != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSettledJobsSurviveStoreEviction: with a zero store budget every
// settled record lives only on disk, yet a campaign's resubmissions
// still count as memo hits, return the same results without running
// again, and leave the manifest unchanged.
func TestSettledJobsSurviveStoreEviction(t *testing.T) {
	run, n := countingRun()
	o, err := New(Config{Workers: 2, CacheDir: t.TempDir(), Run: run, StoreBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	jobs := []Job{testJob(0), testJob(1), testJob(2)}
	first, err := o.RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := o.Store().Stats(); st.Entries != 0 {
		t.Fatalf("zero-budget store kept %d entries", st.Entries)
	}
	again, err := o.RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if *n != 3 {
		t.Fatalf("resubmission re-ran jobs: %d executions", *n)
	}
	for i := range jobs {
		if again[i].Totals != first[i].Totals || again[i].Policy != first[i].Policy {
			t.Fatalf("job %d: %+v vs %+v", i, again[i], first[i])
		}
	}
	m := o.Manifest()
	if m.UniqueJobs != 3 || len(m.Jobs) != 3 || m.MemHits != 3 || m.Misses != 3 || m.Submissions != 6 {
		t.Fatalf("manifest accounting %+v", m)
	}
	if s := o.Stats(); s.Unique != 3 || s.Completed != 3 || s.Queued != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestWriteManifestMatchesMarshal: the streamed manifest.json is byte
// for byte what json.MarshalIndent renders for Manifest() — per-job
// telemetry snapshots, faults and errors included — apart from the
// wall-clock field that moves between the two calls.
func TestWriteManifestMatchesMarshal(t *testing.T) {
	run, _ := countingRun()
	var fail = testJob(9)
	failing := func(ctx context.Context, j Job, reg *telemetry.Registry) (*dvfs.Result, error) {
		if j == fail {
			AddJobFault(ctx, "timeout:b1")
			return nil, errors.New(`boom <&> "quoted"`)
		}
		return run(ctx, j, reg)
	}
	dir := t.TempDir()
	o, err := New(Config{Workers: 2, CacheDir: dir, Run: failing, Metrics: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	wall := regexp.MustCompile(`"wall_ms": [0-9.e+-]+`)
	check := func(stage string) {
		t.Helper()
		want, err := json.MarshalIndent(o.Manifest(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		path := filepath.Join(dir, "manifest.json")
		if err := o.WriteManifest(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, want = wall.ReplaceAll(got, []byte(`"wall_ms": 0`)), wall.ReplaceAll(want, []byte(`"wall_ms": 0`))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: streamed manifest differs from MarshalIndent:\n--- streamed ---\n%s\n--- marshalled ---\n%s", stage, got, want)
		}
	}
	check("empty") // "jobs": null, as an empty campaign always rendered
	if _, err := o.RunJobs(context.Background(), []Job{testJob(0), testJob(1), testJob(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.RunJobs(context.Background(), []Job{fail}); err == nil {
		t.Fatal("failing job succeeded")
	}
	check("settled")
	if m := o.Manifest(); len(m.Jobs) != 3 || m.Jobs[0].Metrics == nil {
		t.Fatalf("manifest jobs %+v", m.Jobs)
	}
}

// TestJournalLeavesNoFile: the manifest journal never appears in the
// cache directory, and Close releases it.
func TestJournalLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	run, _ := countingRun()
	o, err := New(Config{Workers: 1, CacheDir: dir, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.RunJobs(context.Background(), []Job{testJob(0)}); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 1 || filepath.Base(files[0]) != ResultsFile {
		t.Fatalf("cache dir holds %v, want only %s", files, ResultsFile)
	}
}

// TestStoreConcurrentUse hammers one small Store from several goroutines
// — records read back from the cold tier, bodies attached, failures
// pinned — and checks the accounting still balances.
func TestStoreConcurrentUse(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := newStore(4<<10, c, nil)
	for i := 0; i < 32; i++ {
		j := testJob(i)
		if _, err := c.Put(j.Key(), j, &dvfs.Result{Epochs: i}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (n*7 + g) % 32
				j := testJob(i)
				if got, ok := s.Get(j.Key()); !ok || got.Result == nil || got.Result.Epochs != i {
					t.Errorf("key %d: %+v ok=%v", i, got, ok)
					return
				}
				s.Attach(j.Key(), make([]byte, 100+i), "d")
				if n%50 == 0 {
					f := testJob(100 + g*1000 + n)
					s.put(f.Key(), f, nil, errors.New("boom"), true)
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Bytes-st.PinnedBytes > 4<<10 || st.Bodies < 0 || st.Entries < st.Bodies {
		t.Fatalf("accounting off after concurrent use: %+v", st)
	}
}

// TestJournalFailureKeepsMemo: when the manifest journal cannot take an
// entry — it cannot be created, or Close already released it — the
// campaign keeps working in memory: settled keys stay memo hits and are
// never recomputed, and only WriteManifest reports the loss.
func TestJournalFailureKeepsMemo(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	run, n := countingRun()
	o, err := New(Config{Workers: 1, Run: run})
	if err != nil {
		t.Fatalf("New needs a writable temp dir: %v", err)
	}
	jobs := []Job{testJob(0), testJob(1)}
	for pass := 0; pass < 2; pass++ {
		if _, err := o.RunJobs(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
	}
	if *n != 2 {
		t.Fatalf("runs = %d, want 2: a lost journal entry broke the memo", *n)
	}
	if st := o.Stats(); st.MemHits != 2 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 2 mem hits and 2 misses", st)
	}
	if err := o.WriteManifest(filepath.Join(t.TempDir(), "manifest.json")); err == nil {
		t.Fatal("WriteManifest passed off a journal that lost entries")
	}

	// After Close the journal (here in the cache dir) is gone, but
	// dedupe carries on.
	o2, err := New(Config{Workers: 1, CacheDir: t.TempDir(), Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o2.RunJobs(context.Background(), []Job{testJob(2)}); err != nil {
		t.Fatal(err)
	}
	if err := o2.Close(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := o2.RunJobs(context.Background(), []Job{testJob(3)}); err != nil {
			t.Fatal(err)
		}
	}
	if *n != 4 {
		t.Fatalf("runs = %d, want 4: a job settled after Close was recomputed", *n)
	}
}
