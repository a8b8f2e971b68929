package orchestrate

import (
	"bytes"
	"container/list"
	"sync"
	"unsafe"

	"pcstall/internal/dvfs"
)

// DefaultStoreBytes is the Store's byte budget when the configuration
// leaves it unset: a few thousand rendered sim bodies with their records.
const DefaultStoreBytes int64 = 32 << 20

// Settled is one settled job as the Store holds it: the record (Job and
// Result, or Err for a job that failed) and, once a server attached
// them, the rendered response body and its wire digest. Either half may
// be absent.
type Settled struct {
	Job    Job
	Result *dvfs.Result
	Err    error
	Body   []byte
	Digest string
}

// Store is the one home of settled results: a byte-bounded LRU with a
// single entry per key holding the record, the rendered body and its
// digest. Below it sits the cold tier, the result cache's results.jsonl,
// of which only a key→offset index is in memory.
//
// Eviction walks from the least recently used entry. A body can always
// go. A record goes only when the cold tier can serve it back; one it
// cannot — no cache directory, a failed disk write, a failed job — is
// pinned outside the budget, since memory holds its only copy. Stored
// bodies are immutable. A Store is safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	max   int64
	cold  *Cache
	lru   list.List // entries holding evictable bytes; front = most recent
	byKey map[string]*storeEntry
	st    StoreStats
	tele  *orchTelemetry
}

// StoreStats is a snapshot of a Store's shape.
type StoreStats struct {
	// Entries counts keys held, Bytes their estimated footprint, and
	// PinnedBytes the part the budget does not bound. Evictions counts
	// entries dropped to hold the budget.
	Entries                       int
	Bytes, PinnedBytes, Evictions int64
	// Bodies, BodyBytes and BodyEvictions describe the rendered bodies.
	Bodies                   int
	BodyBytes, BodyEvictions int64
}

// storeEntry is one key's settled state.
type storeEntry struct {
	Settled
	key     string
	recSize int64         // estimated bytes of the record (0 when absent)
	pinned  bool          // the cold tier cannot serve the record back
	el      *list.Element // nil when nothing here is evictable
}

// NewStore builds a Store bounded to max bytes over an optional cold
// tier (nil: every record is pinned). max == 0 selects
// DefaultStoreBytes; a negative max keeps nothing evictable.
func NewStore(max int64, cold *Cache) *Store { return newStore(max, cold, nil) }

func newStore(max int64, cold *Cache, tele *orchTelemetry) *Store {
	if max == 0 {
		max = DefaultStoreBytes
	}
	return &Store{max: max, cold: cold, byKey: map[string]*storeEntry{}, tele: tele}
}

// Get returns key's settled state, from memory (refreshing its recency),
// with a record missing there read back from the cold tier and promoted.
// A key holding only a failure reads as a miss: a server must not replay
// one.
func (s *Store) Get(key string) (Settled, bool) {
	st := s.settled(key)
	return st, st.Result != nil || st.Body != nil
}

// settled is Get including failures.
func (s *Store) settled(key string) Settled {
	s.mu.Lock()
	var st Settled
	if e := s.byKey[key]; e != nil {
		if e.el != nil {
			s.lru.MoveToFront(e.el)
		}
		st = e.Settled
	}
	s.mu.Unlock()
	if st.Result == nil && st.Err == nil && s.cold != nil {
		if ce, ok := s.cold.entry(key); ok {
			s.put(key, ce.Job, ce.Result, nil, false)
			st.Job, st.Result = ce.Job, ce.Result
		}
	}
	return st
}

// entryLocked returns key's entry, creating it.
func (s *Store) entryLocked(key string) *storeEntry {
	e := s.byKey[key]
	if e == nil {
		e = &storeEntry{key: key}
		s.byKey[key] = e
		s.st.Entries++
	}
	return e
}

// put stores a settled record (res) or failure (err) under key; pinned
// says the cold tier cannot serve it back.
func (s *Store) put(key string, j Job, res *dvfs.Result, err error, pinned bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(key)
	s.dropRecordLocked(e)
	e.Job, e.Result, e.Err, e.pinned = j, res, err, pinned
	e.recSize = recordBytes(key, j, res, err)
	s.st.Bytes += e.recSize
	if pinned {
		s.st.PinnedBytes += e.recSize
	}
	s.touchLocked(e)
}

// Attach stores a rendered body and its wire digest beside key's record
// (if any). A body larger than the whole budget is not stored, and
// re-attaching a key only refreshes it: keys are content addresses, so
// the bytes are the same.
func (s *Store) Attach(key string, body []byte, digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int64(len(body)) > s.max {
		return
	}
	e := s.entryLocked(key)
	if e.Body == nil {
		// Encoders over-allocate; keep only the bytes the budget counts.
		e.Body, e.Digest = bytes.Clone(body), digest
		s.st.Bodies++
		s.st.BodyBytes += int64(len(body))
		s.st.Bytes += int64(len(body))
	}
	s.touchLocked(e)
}

// Stats snapshots the Store's shape.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// dropRecordLocked removes e's record from e and the accounting.
func (s *Store) dropRecordLocked(e *storeEntry) {
	s.st.Bytes -= e.recSize
	if e.pinned {
		s.st.PinnedBytes -= e.recSize
	}
	e.Result, e.Err, e.recSize, e.pinned = nil, nil, 0, false
}

// touchLocked makes e most recently used — keeping it on the LRU list
// exactly while it holds something evictable — then evicts from the
// back until the evictable bytes fit the budget, and publishes the
// shape.
func (s *Store) touchLocked(e *storeEntry) {
	switch evictable := e.Body != nil || !e.pinned; {
	case evictable && e.el == nil:
		e.el = s.lru.PushFront(e)
	case evictable:
		s.lru.MoveToFront(e.el)
	case e.el != nil:
		s.lru.Remove(e.el)
		e.el = nil
	}
	for s.st.Bytes-s.st.PinnedBytes > s.max && s.lru.Len() > 0 {
		e := s.lru.Remove(s.lru.Back()).(*storeEntry)
		e.el = nil
		if e.Body != nil {
			s.st.Bytes -= int64(len(e.Body))
			s.st.BodyBytes -= int64(len(e.Body))
			s.st.Bodies--
			s.st.BodyEvictions++
			e.Body, e.Digest = nil, ""
		}
		if !e.pinned {
			s.dropRecordLocked(e)
			delete(s.byKey, e.key)
			s.st.Entries--
			s.st.Evictions++
		}
	}
	s.tele.storeShape(s.st)
}

// recordBytes estimates a record's in-memory footprint: the entry and
// its map and list slots, the job's strings, and the result.
func recordBytes(key string, j Job, r *dvfs.Result, err error) int64 {
	n := int(unsafe.Sizeof(storeEntry{})+unsafe.Sizeof(list.Element{})) + 2*len(key) +
		len(j.App) + len(j.Design) + len(j.Objective) + len(j.Chaos) + len(j.SimVersion)
	if r != nil {
		n += int(unsafe.Sizeof(*r)) + 8*(len(r.Residency)+len(r.FinalTempC)) +
			len(r.Records)*int(unsafe.Sizeof(dvfs.EpochRecord{}))
	}
	if err != nil {
		n += len(err.Error())
	}
	return int64(n)
}

// storeShape publishes the Store's gauges and new evictions (nil-safe;
// called under Store.mu).
func (t *orchTelemetry) storeShape(st StoreStats) {
	if t == nil {
		return
	}
	t.storeEntries.Set(float64(st.Entries))
	t.storeBytes.Set(float64(st.Bytes))
	t.storePinned.Set(float64(st.PinnedBytes))
	t.storeEvictions.Add(st.Evictions - t.storeEvicted)
	t.storeEvicted = st.Evictions
}
