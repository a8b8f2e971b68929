package orchestrate

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"pcstall/internal/telemetry"
)

// ManifestEntry records one unique job of a campaign: its content
// address, full description, where the result came from, and how long it
// took to compute (zero for cache hits).
type ManifestEntry struct {
	Key string `json:"key"`
	Job Job    `json:"job"`
	// Source is "run" (computed this campaign), "disk" (loaded from the
	// cache directory), or a provenance string a dispatching RunFunc
	// recorded via SetJobSource — "remote:<backend>" for results ingested
	// from a pcstall-serve worker, "local-fallback" for the distributed
	// coordinator's degraded lane. In-process duplicate submissions never
	// add an entry; they are counted in the aggregate MemHits.
	Source string `json:"source"`
	// DurationMS is the job's wall-clock compute time (0 when cached).
	DurationMS float64 `json:"duration_ms"`
	// Faults lists the dispatch faults this job survived before settling
	// (AddJobFault) — "integrity:<backend>", "timeout:<backend>",
	// "shed:<backend>", "skew:<backend>", "error:<backend>" — in the
	// order they occurred. Absent on clean runs, so fault-free campaign
	// manifests are byte-identical to those of earlier builds.
	Faults []string `json:"faults,omitempty"`
	// Error records why a computed job settled without a result (timeout,
	// recovered panic, exhausted retries). Cancelled jobs never appear in
	// the manifest at all: they are forgotten so a resumed campaign
	// recomputes them.
	Error string `json:"error,omitempty"`
	// Metrics is the job's private telemetry snapshot (simulation
	// counters, prediction error, oracle fork costs), present only for
	// computed jobs in campaigns with Config.Metrics attached.
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
	// TraceID correlates this entry with the job's distributed trace
	// (internal/tracing): the same ID keys /debug/traces on every process
	// the job touched and the -trace-out Chrome export. Empty when the
	// campaign ran untraced.
	TraceID string `json:"trace_id,omitempty"`
}

// Manifest is the auditable record of one campaign (one Orchestrator
// lifetime): every unique job with its hash and timing, aggregate cache
// accounting, and the pool shape that produced the results.
type Manifest struct {
	SimVersion string `json:"sim_version"`
	CreatedAt  string `json:"created_at"`
	Workers    int    `json:"workers"`
	// Submissions counts every job submission, including duplicates that
	// were answered by the in-process memo.
	Submissions int `json:"submissions"`
	// UniqueJobs is len(Jobs).
	UniqueJobs int `json:"unique_jobs"`
	// MemHits counts submissions answered by the in-process memo,
	// DiskHits those answered by the cache directory, and Misses those
	// that ran a simulation.
	MemHits  int `json:"mem_hits"`
	DiskHits int `json:"disk_hits"`
	Misses   int `json:"misses"`
	// JobTimeMS sums per-job compute time; WallMS is campaign wall time.
	// Their ratio is the realized parallel speedup over the pool.
	JobTimeMS float64 `json:"job_time_ms"`
	WallMS    float64 `json:"wall_ms"`
	// Jobs lists unique jobs sorted by key for stable diffs.
	Jobs []ManifestEntry `json:"jobs"`
	// Metrics is the campaign-global registry snapshot at manifest time
	// (merged per-job snapshots plus live pool metrics), present when
	// the orchestrator was built with Config.Metrics.
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
}

// HitRate returns the fraction of submissions answered by either cache
// layer (0 when nothing was submitted).
func (m *Manifest) HitRate() float64 {
	if m.Submissions == 0 {
		return 0
	}
	return float64(m.MemHits+m.DiskHits) / float64(m.Submissions)
}

// encodeEntry renders one journal line for e.
func encodeEntry(e ManifestEntry) []byte {
	b, err := json.Marshal(e)
	if err != nil {
		// Non-finite metric values cannot be encoded; keep the entry
		// without its snapshot rather than lose the job from the manifest.
		e.Metrics = nil
		b, _ = json.Marshal(e)
	}
	return append(b, '\n')
}

// journalLocked appends one settled job's manifest entry to the journal,
// creating it on first use: one per orchestrator, since processes may
// share a cache dir, unlinked at once so even a killed process leaves
// nothing behind (the open handle keeps it readable until Close). When
// the journal cannot take the line — a failed create or write, or Close
// already ran — only the entry is lost: the key is still indexed, so
// later submissions of it stay memo hits, and the first failure is kept
// for WriteManifest, as a manifest missing jobs must not pass for a
// complete one. Callers hold o.mu.
func (o *Orchestrator) journalLocked(key string, line []byte) {
	if o.journalErr == nil && o.journal.file == nil {
		if f, err := os.CreateTemp(o.journalDir, "manifest-*.jsonl"); err != nil {
			o.journalErr = fmt.Errorf("manifest journal: %w", err)
		} else {
			o.journal.file, o.journalPath = f, f.Name()
			os.Remove(f.Name())
		}
	}
	if o.journalErr == nil {
		if err := o.journal.appendLine(key, line); err != nil {
			o.journalErr = fmt.Errorf("manifest journal: %w", err)
		}
	}
	if o.journalErr != nil {
		o.journal.add(key, 0, 0) // settled, with no readable entry
	}
}

// manifestHead snapshots the campaign's aggregate fields (Jobs left nil)
// and the journal file and lines of its jobs in key order, plus the
// journal's first failure.
func (o *Orchestrator) manifestHead() (*Manifest, *os.File, []lineRef, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := &Manifest{
		SimVersion:  SimVersion,
		CreatedAt:   o.created.UTC().Format(time.RFC3339),
		Workers:     o.workers,
		Submissions: o.submissions,
		UniqueJobs:  len(o.journal.index),
		MemHits:     o.memHits,
		DiskHits:    o.diskHits,
		Misses:      o.misses,
		JobTimeMS:   float64(o.jobTime) / float64(time.Millisecond),
		WallMS:      float64(time.Since(o.created)) / float64(time.Millisecond),
	}
	if o.tele.reg != nil {
		snap := o.tele.reg.Snapshot()
		m.Metrics = &snap
	}
	refs := make([]lineRef, 0, len(o.journal.index))
	for _, k := range o.journal.sortedKeys() {
		refs = append(refs, o.journal.index[k])
	}
	return m, o.journal.file, refs, o.journalErr
}

// Manifest snapshots the campaign so far, reading its jobs back from the
// journal (call it before Close). Jobs are sorted by key, so two
// identical campaigns produce byte-identical manifests up to timings.
func (o *Orchestrator) Manifest() *Manifest {
	m, f, refs, _ := o.manifestHead()
	for _, ref := range refs {
		var e ManifestEntry
		if line, err := readLine(f, ref); err == nil && json.Unmarshal(line, &e) == nil {
			m.Jobs = append(m.Jobs, e)
		}
	}
	return m
}

// WriteManifest writes the campaign manifest as indented JSON to path
// (call it before Close). The bytes are those json.MarshalIndent gives
// for Manifest(), but the jobs stream from the journal one line at a
// time, re-indented in place, so the document is never held in memory.
func (o *Orchestrator) WriteManifest(path string) error {
	f, err := os.Create(path)
	if err == nil {
		w := bufio.NewWriter(f)
		if err = o.writeManifest(w); err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("orchestrate: writing manifest: %w", err)
	}
	return nil
}

func (o *Orchestrator) writeManifest(w *bufio.Writer) error {
	m, f, refs, err := o.manifestHead()
	if err != nil {
		return err
	}
	head, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if len(refs) == 0 {
		w.Write(head) // "jobs": null, as an empty campaign always rendered
		return w.WriteByte('\n')
	}
	// Splice the journal lines in where the head renders "jobs": null.
	before, after, found := bytes.Cut(head, []byte("\n  \"jobs\": null"))
	if !found {
		return fmt.Errorf("manifest head has no null jobs field to splice")
	}
	w.Write(before)
	sep := "\n  \"jobs\": [\n    "
	var buf bytes.Buffer
	for _, ref := range refs {
		line, err := readLine(f, ref)
		buf.Reset()
		if err == nil {
			err = json.Indent(&buf, bytes.TrimSuffix(line, []byte{'\n'}), "    ", "  ")
		}
		if err != nil {
			return fmt.Errorf("reading journal: %w", err)
		}
		w.WriteString(sep)
		w.Write(buf.Bytes())
		sep = ",\n    "
	}
	w.WriteString("\n  ]")
	w.Write(after)
	return w.WriteByte('\n')
}
