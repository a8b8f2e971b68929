package orchestrate

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"pcstall/internal/dvfs"
)

// cacheEntry is one JSONL line of the on-disk result cache.
type cacheEntry struct {
	Key    string       `json:"key"`
	Job    Job          `json:"job"`
	Result *dvfs.Result `json:"result"`
}

// Cache is the content-addressed disk layer and the Store's cold tier:
// one append-only JSON Lines file of (key, job, result) records under a
// cache directory. Only a key→line index is kept in memory; a lookup
// reads and decodes its one line, so a cache of any size costs tens of
// bytes per key, not the records themselves. Writes append one line per
// computed result. Keys embed SimVersion, so entries written by an older
// simulator silently miss (and are left in place) after a bump.
//
// The disk layer is best-effort in both directions. On load, corrupt
// lines — a torn append from a killed process, even one longer than the
// scanner buffer — cost only themselves: everything readable before them
// is kept, and a corrupt tail is truncate-repaired in place (the file is
// atomically rewritten from the surviving entries). On store, the first
// write failure (disk full, revoked handle) disables further disk writes
// for the run and is surfaced once to the caller; results that could not
// be persisted stay in memory in the Store instead.
//
// A Cache is safe for concurrent use by multiple goroutines within one
// process. Concurrent processes appending to the same directory do not
// corrupt each other's lines (single-line appends), but may duplicate
// work; last-loaded wins on duplicate keys.
type Cache struct {
	mu sync.Mutex
	lineLog
	repaired bool
	writeErr error
}

// ResultsFile is the JSONL file name used inside a cache directory.
const ResultsFile = "results.jsonl"

// OpenCache opens (creating if needed) the cache under dir and indexes
// any existing results. Corrupt lines (a previously killed process) are
// skipped, not fatal; a corrupt tail that breaks the scanner itself
// triggers an in-place repair that keeps every entry indexed so far.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("orchestrate: creating cache dir: %w", err)
	}
	path := filepath.Join(dir, ResultsFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("orchestrate: opening %s: %w", path, err)
	}
	c := &Cache{lineLog: lineLog{file: f, index: map[string]lineRef{}}}
	torn := false
	scanErr := scanLines(f, func(off int64, line []byte) {
		torn = line[len(line)-1] != '\n'
		// Validate without decoding the result: RawMessage still checks
		// the whole line's syntax.
		var e struct {
			Key    string          `json:"key"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(line, &e); err == nil && e.Key != "" && len(e.Result) > 0 && string(e.Result) != "null" {
			c.add(e.Key, off, int64(len(line))) // torn/corrupt lines are skipped
		}
	})
	switch {
	case scanErr != nil:
		// A scanner error (most likely a torn final line longer than the
		// buffer) means the tail is unreadable, not that the cache is
		// lost: keep what was indexed and rewrite the file from it so the
		// directory is healthy again for this and future runs.
		if rerr := c.repair(path); rerr != nil {
			f.Close()
			return nil, fmt.Errorf("orchestrate: repairing %s after corrupt tail (%v): %w", path, scanErr, rerr)
		}
		c.repaired = true
	case torn:
		// Terminate a torn final line so the next append starts a line
		// of its own instead of extending the corrupt one.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("orchestrate: appending to %s: %w", path, err)
		}
	}
	return c, nil
}

// repair atomically rewrites the results file from the indexed lines
// (sorted by key for stable diffs), discarding the unreadable tail, and
// reopens it with the index pointing into the new file.
func (c *Cache) repair(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ResultsFile+".repair-*")
	if err != nil {
		return err
	}
	fresh := lineLog{index: map[string]lineRef{}}
	for _, k := range c.sortedKeys() {
		line, err := readLine(c.file, c.index[k])
		if err == nil {
			_, err = tmp.Write(line)
		}
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
		fresh.add(k, fresh.bytes, int64(len(line)))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if fresh.file, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644); err != nil {
		return err
	}
	c.file.Close()
	c.lineLog = fresh
	return nil
}

// Repaired reports whether OpenCache had to truncate-repair a corrupt
// tail.
func (c *Cache) Repaired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.repaired
}

// WriteErr returns the persistence failure that disabled disk writes,
// if one occurred.
func (c *Cache) WriteErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeErr
}

// entry reads and decodes key's line. The read runs outside the lock:
// indexed lines are immutable.
func (c *Cache) entry(key string) (cacheEntry, bool) {
	c.mu.Lock()
	ref, ok := c.index[key]
	f := c.file
	c.mu.Unlock()
	if !ok || f == nil {
		return cacheEntry{}, false
	}
	var e cacheEntry
	line, err := readLine(f, ref)
	if err != nil || json.Unmarshal(line, &e) != nil || e.Key != key || e.Result == nil {
		return cacheEntry{}, false
	}
	return e, true
}

// Put appends a computed result to the results file and reports
// whether it got there, i.e. whether the cache can serve it back. A
// persistence error is returned once and disables further disk writes
// for the run; later Puts are no-ops, so the caller should degrade
// (count the failure, keep the result in memory), not fail the job. A
// partially appended line from the failed write is tolerated (and
// repaired) by the next OpenCache.
func (c *Cache) Put(key string, j Job, r *dvfs.Result) (persisted bool, err error) {
	line, err := json.Marshal(cacheEntry{Key: key, Job: j, Result: r})
	if err != nil {
		return false, fmt.Errorf("orchestrate: encoding %s: %w", key, err)
	}
	line = append(line, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.file == nil || c.writeErr != nil {
		return false, nil
	}
	if err := c.appendLine(key, line); err != nil {
		c.writeErr = fmt.Errorf("orchestrate: persisting %s (disk writes disabled for this run): %w", key, err)
		return false, c.writeErr
	}
	return true, nil
}

// Close releases the file handle; later lookups miss and Puts are
// no-ops.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.file == nil {
		return nil
	}
	err := c.file.Close()
	c.file = nil
	return err
}
