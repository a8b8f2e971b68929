package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"pcstall/internal/orchestrate"
	"pcstall/internal/wire"
	"pcstall/internal/workload"
)

// postFigure posts one figure-regeneration request.
func postFigure(t *testing.T, h http.Handler, id string, async bool) *httptest.ResponseRecorder {
	t.Helper()
	url := "/v1/figures/" + id
	if async {
		url += "?async=1"
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", url, nil))
	return w
}

// TestBodyLRUHit: the first settlement of a sim promotes its rendered
// body into the hot tier; an identical later request is served from the
// LRU byte-identically — same body, same ETag, same wire digest —
// without running a simulation, touching the result cache, or
// re-rendering JSON.
func TestBodyLRUHit(t *testing.T) {
	backend := &stubBackend{}
	s, reg := newTestServer(t, backend, nil)

	first := postSim(t, s.Handler(), simBody(21))
	if first.Code != http.StatusOK {
		t.Fatalf("first sim: %d: %s", first.Code, first.Body.String())
	}
	second := postSim(t, s.Handler(), simBody(21))
	if second.Code != http.StatusOK {
		t.Fatalf("second sim: %d: %s", second.Code, second.Body.String())
	}

	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("LRU-served body differs from the cold-rendered one:\n%s\nvs\n%s",
			second.Body.String(), first.Body.String())
	}
	if a, b := first.Header().Get("ETag"), second.Header().Get("ETag"); a == "" || a != b {
		t.Errorf("ETag diverged across the hot tier: %q vs %q", a, b)
	}
	a, b := first.Header().Get(wire.DigestHeader), second.Header().Get(wire.DigestHeader)
	if a == "" || a != b {
		t.Errorf("%s diverged across the hot tier: %q vs %q", wire.DigestHeader, a, b)
	}
	if got := wire.Digest(second.Body.Bytes()); got != b {
		t.Errorf("LRU digest stamp %q does not match the body (%q)", b, got)
	}

	if got := atomic.LoadInt32(&backend.simCalls); got != 1 {
		t.Errorf("RunSim called %d times, want 1 (second request must hit the LRU)", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_body_cache_hits_total"]; got != 1 {
		t.Errorf("serve_body_cache_hits_total = %d, want 1", got)
	}
	if got := snap.Counters["serve_cache_short_circuit_total"]; got != 0 {
		t.Errorf("serve_cache_short_circuit_total = %d, want 0 (LRU outranks the result cache)", got)
	}

	// A coordinator replaying with the validator gets 304 off the LRU.
	req := httptest.NewRequest("POST", "/v1/sim", strings.NewReader(simBody(21)))
	req.Header.Set("If-None-Match", first.Header().Get("ETag"))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusNotModified || w.Body.Len() != 0 {
		t.Errorf("If-None-Match on LRU hit: code=%d len=%d, want 304 empty", w.Code, w.Body.Len())
	}
}

// TestBodyLRUDisabled: a negative store budget keeps no bodies (and no
// record the cold tier can serve) — identical requests still answer
// byte-identically, re-rendered from the record read back from disk
// without recomputing, but nothing counts as a body-cache hit.
func TestBodyLRUDisabled(t *testing.T) {
	backend := &stubBackend{cold: coldCache(t), storeBytes: -1}
	s, reg := newTestServer(t, backend, nil)
	first := postSim(t, s.Handler(), simBody(22))
	second := postSim(t, s.Handler(), simBody(22))
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("codes %d, %d", first.Code, second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("bodies diverged with the LRU disabled")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_body_cache_hits_total"]; got != 0 {
		t.Errorf("serve_body_cache_hits_total = %d, want 0 when disabled", got)
	}
	if got := snap.Counters["serve_cache_short_circuit_total"]; got != 1 {
		t.Errorf("serve_cache_short_circuit_total = %d, want 1 (record read back from the cold tier)", got)
	}
	if got := atomic.LoadInt32(&backend.simCalls); got != 1 {
		t.Errorf("RunSim called %d times, want 1", got)
	}
	if st := backend.Store().Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("store holds %+v with a negative budget, want nothing", st)
	}
}

// TestBodyLRUCachedPromotion: a result-cache short-circuit renders once
// and promotes the body, so the next identical request never touches
// the result cache again.
func TestBodyLRUCachedPromotion(t *testing.T) {
	j := testDefaults()
	j.App = workload.Names()[0]
	j.Design = "PCSTALL"
	j.Seed = 23
	j.SimVersion = orchestrate.SimVersion
	backend := &stubBackend{cold: coldCache(t, j)}
	s, reg := newTestServer(t, backend, nil)

	first := postSim(t, s.Handler(), simBody(23))
	second := postSim(t, s.Handler(), simBody(23))
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("codes %d, %d", first.Code, second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("bodies diverged between result-cache render and LRU replay")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_cache_short_circuit_total"]; got != 1 {
		t.Errorf("serve_cache_short_circuit_total = %d, want 1 (only the first request)", got)
	}
	if got := snap.Counters["serve_body_cache_hits_total"]; got != 1 {
		t.Errorf("serve_body_cache_hits_total = %d, want 1", got)
	}
}

// TestBodyLRUEvictionBounded: a server whose body budget holds one
// rendered body evicts under churn instead of growing, and publishes
// the shape truthfully.
func TestBodyLRUEvictionBounded(t *testing.T) {
	// Measure one rendered body on a throwaway server.
	probe := postSim(t, func() http.Handler {
		s, _ := newTestServer(t, &stubBackend{}, nil)
		return s.Handler()
	}(), simBody(31))
	if probe.Code != http.StatusOK {
		t.Fatalf("probe sim: %d", probe.Code)
	}
	budget := int64(probe.Body.Len()) * 3 / 2 // fits one body, not two

	s, reg := newTestServer(t, &stubBackend{storeBytes: budget}, nil)
	for _, seed := range []uint64{31, 32, 33} {
		if w := postSim(t, s.Handler(), simBody(seed)); w.Code != http.StatusOK {
			t.Fatalf("seed %d: %d: %s", seed, w.Code, w.Body.String())
		}
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["serve_body_cache_bytes"]; int64(got) > budget {
		t.Errorf("serve_body_cache_bytes = %v exceeds budget %d", got, budget)
	}
	if got := snap.Gauges["serve_body_cache_entries"]; got != 1 {
		t.Errorf("serve_body_cache_entries = %v, want 1 under a one-body budget", got)
	}
	if got := snap.Counters["serve_body_cache_evictions_total"]; got != 2 {
		t.Errorf("serve_body_cache_evictions_total = %d, want 2", got)
	}
}

// TestFigureQueueFullSheds: the figure lane bounds figures on its own
// budget — shedding them with a figure-lane Retry-After and counter —
// while cold sims keep flowing untouched.
func TestFigureQueueFullSheds(t *testing.T) {
	backend := &stubBackend{figBlock: make(chan struct{})}
	defer close(backend.figBlock)
	s, reg := newTestServer(t, backend, func(c *Config) {
		c.FigureQueue = 1
		c.Workers = 1
	})

	if w := postFigure(t, s.Handler(), "5", true); w.Code != http.StatusAccepted {
		t.Fatalf("figure admit: status %d", w.Code)
	}
	w := postFigure(t, s.Handler(), "14", false)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("figure over budget: status %d, want 429\nbody: %s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Error("figure 429 missing Retry-After")
	}
	if e := decodeError(t, w); !strings.Contains(e.Error, "figure admission queue full") {
		t.Errorf("shed error does not name the figure lane: %q", e.Error)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`serve_shed_total{class="figure"}`]; got != 1 {
		t.Errorf(`serve_shed_total{class="figure"} = %d, want 1`, got)
	}
	if got := snap.Counters[`serve_shed_total{class="cold"}`]; got != 0 {
		t.Errorf(`serve_shed_total{class="cold"} = %d, want 0`, got)
	}

	// The figure backlog never sheds a sim.
	if w := postSim(t, s.Handler(), simBody(41)); w.Code != http.StatusOK {
		t.Errorf("sim under figure backlog: status %d, want 200", w.Code)
	}
}

// TestRetryAfterPerLane: each lane's Retry-After is computed from its
// own backlog and cost model. A saturated cold-sim lane (8 queued jobs
// behind one worker) must not inflate the hint a shed figure client
// receives, and vice versa.
func TestRetryAfterPerLane(t *testing.T) {
	backend := &stubBackend{
		block:    make(chan struct{}),
		figBlock: make(chan struct{}),
	}
	defer close(backend.block)
	defer close(backend.figBlock)
	s, _ := newTestServer(t, backend, func(c *Config) {
		c.MaxQueue = 8
		c.FigureQueue = 1
		c.Workers = 1
	})

	// Boundary: exactly MaxQueue admissions succeed...
	for seed := uint64(50); seed < 58; seed++ {
		req := httptest.NewRequest("POST", "/v1/sim?async=1", strings.NewReader(simBody(seed)))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			t.Fatalf("seed %d: status %d, want 202 (under the bound)", seed, w.Code)
		}
	}
	// ...and one figure fills its own lane.
	if w := postFigure(t, s.Handler(), "5", true); w.Code != http.StatusAccepted {
		t.Fatalf("figure admit under cold backlog: status %d, want 202", w.Code)
	}

	// The 9th distinct sim sheds: no observed settlements and a zero
	// Stats fallback mean 1s/job, backlog 8, one worker => 8s.
	w := postSim(t, s.Handler(), simBody(58))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-bound sim: status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "8" {
		t.Errorf("cold Retry-After = %q, want \"8\" (backlog 8 / 1 worker x 1s)", ra)
	}

	// A shed figure answers from the figure lane's model: backlog 1,
	// 30s first-figure guess, single figure slot => 30s — regardless of
	// the eight cold sims queued next door.
	w = postFigure(t, s.Handler(), "14", false)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-bound figure: status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "30" {
		t.Errorf("figure Retry-After = %q, want \"30\" (cold backlog must not leak in)", ra)
	}
}

// TestHealthzQueues: /healthz breaks the queue shape out per admission
// lane with capacities, while the aggregate fields stay the lane sums.
func TestHealthzQueues(t *testing.T) {
	backend := &stubBackend{
		block:    make(chan struct{}),
		figBlock: make(chan struct{}),
	}
	defer close(backend.block)
	defer close(backend.figBlock)
	s, _ := newTestServer(t, backend, func(c *Config) {
		c.MaxQueue = 5
		c.FigureQueue = 3
		c.Workers = 1
	})
	for _, seed := range []uint64{61, 62} {
		req := httptest.NewRequest("POST", "/v1/sim?async=1", strings.NewReader(simBody(seed)))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, w.Code)
		}
	}
	if w := postFigure(t, s.Handler(), "5", true); w.Code != http.StatusAccepted {
		t.Fatalf("figure admit: status %d", w.Code)
	}

	var h healthResponse
	waitFor(t, func() bool {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
		if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		// One sim running + one queued, one figure running.
		return h.Queues["cold"].Running == 1 && h.Queues["figure"].Running == 1
	})
	cold, fig := h.Queues["cold"], h.Queues["figure"]
	if cold.QueueDepth != 1 || cold.Capacity != 5 {
		t.Errorf("cold lane = %+v, want queue_depth 1 capacity 5", cold)
	}
	if fig.QueueDepth != 0 || fig.Capacity != 3 {
		t.Errorf("figure lane = %+v, want queue_depth 0 capacity 3", fig)
	}
	if h.QueueDepth != cold.QueueDepth+fig.QueueDepth || h.Running != cold.Running+fig.Running {
		t.Errorf("aggregates (%d, %d) are not the lane sums: %+v", h.QueueDepth, h.Running, h.Queues)
	}
}

// TestSharedLaneLegacy: a negative FigureQueue collapses figures onto
// the sim lane — the pre-lane aggregate discipline. Sheds count under
// class "all" and /healthz reports the single shared lane.
func TestSharedLaneLegacy(t *testing.T) {
	backend := &stubBackend{block: make(chan struct{})}
	defer close(backend.block)
	s, reg := newTestServer(t, backend, func(c *Config) {
		c.MaxQueue = 1
		c.FigureQueue = -1
		c.Workers = 1
	})

	req := httptest.NewRequest("POST", "/v1/sim?async=1", strings.NewReader(simBody(71)))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("admit: status %d", w.Code)
	}

	// In shared mode a figure sheds behind the sim backlog.
	w = postFigure(t, s.Handler(), "5", false)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("figure behind shared backlog: status %d, want 429", w.Code)
	}
	if e := decodeError(t, w); !strings.Contains(e.Error, "all admission queue full") {
		t.Errorf("shed error does not name the shared lane: %q", e.Error)
	}
	if got := reg.Snapshot().Counters[`serve_shed_total{class="all"}`]; got != 1 {
		t.Errorf(`serve_shed_total{class="all"} = %d, want 1`, got)
	}

	hw := httptest.NewRecorder()
	s.Handler().ServeHTTP(hw, httptest.NewRequest("GET", "/healthz", nil))
	var h healthResponse
	if err := json.Unmarshal(hw.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Queues) != 1 || h.Queues["all"].Capacity != 1 {
		t.Errorf("shared-mode /healthz queues = %+v, want one \"all\" lane with capacity 1", h.Queues)
	}
}

// TestPollAfterBodyEviction: the job map keeps no body once a job
// settles, so a poll (and the SSE done frame) of a settled sim whose
// body the store dropped re-renders it from the record the cold tier
// serves back — byte-identical to what a sync request receives.
func TestPollAfterBodyEviction(t *testing.T) {
	backend := &stubBackend{cold: coldCache(t), storeBytes: -1}
	s, _ := newTestServer(t, backend, nil)
	id := startAsyncJob(t, s, 24)
	var resp jobResponse
	waitFor(t, func() bool {
		pw := httptest.NewRecorder()
		s.Handler().ServeHTTP(pw, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
		return json.Unmarshal(pw.Body.Bytes(), &resp) == nil && resp.Status == statusDone
	})
	if st := backend.Store().Stats(); st.Entries != 0 {
		t.Fatalf("negative budget kept %+v", st)
	}
	sync := postSim(t, s.Handler(), simBody(24))
	if sync.Code != http.StatusOK {
		t.Fatalf("sync repeat: %d", sync.Code)
	}
	var polled bytes.Buffer
	if err := json.Indent(&polled, resp.Response, "", "  "); err != nil {
		t.Fatal(err)
	}
	polled.WriteByte('\n')
	if !bytes.Equal(polled.Bytes(), sync.Body.Bytes()) {
		t.Errorf("polled body differs from the sync body:\n%s\nvs\n%s", polled.Bytes(), sync.Body.Bytes())
	}
	ew := httptest.NewRecorder()
	s.Handler().ServeHTTP(ew, httptest.NewRequest("GET", "/v1/jobs/"+id+"/events", nil))
	if !strings.Contains(ew.Body.String(), "event: done") || !strings.Contains(ew.Body.String(), `"result"`) {
		t.Errorf("SSE done frame lacks the re-rendered result:\n%s", ew.Body.String())
	}
	if got := atomic.LoadInt32(&backend.simCalls); got != 1 {
		t.Errorf("RunSim called %d times, want 1", got)
	}
}

// TestAsyncFigureKeepsBody: the store holds only sim records, so a
// settled figure's status record keeps its body. With a store that
// keeps nothing, a poll and the SSE done frame of an async figure still
// carry the table, and a repeat request is answered from the record.
func TestAsyncFigureKeepsBody(t *testing.T) {
	s, reg := newTestServer(t, &stubBackend{storeBytes: -1}, nil)
	if w := postFigure(t, s.Handler(), "5", true); w.Code != http.StatusAccepted {
		t.Fatalf("figure admit: status %d", w.Code)
	}
	var resp jobResponse
	waitFor(t, func() bool {
		pw := httptest.NewRecorder()
		s.Handler().ServeHTTP(pw, httptest.NewRequest("GET", "/v1/jobs/fig-5", nil))
		return json.Unmarshal(pw.Body.Bytes(), &resp) == nil && resp.Status == statusDone
	})
	var fig figureResponse
	if err := json.Unmarshal(resp.Response, &fig); err != nil || fig.Table == nil || fig.Figure != "5" {
		t.Fatalf("polled figure lacks its table (err %v): %s", err, resp.Response)
	}
	ew := httptest.NewRecorder()
	s.Handler().ServeHTTP(ew, httptest.NewRequest("GET", "/v1/jobs/fig-5/events", nil))
	if !strings.Contains(ew.Body.String(), "event: done") || !strings.Contains(ew.Body.String(), `"table"`) {
		t.Errorf("SSE done frame lacks the table:\n%s", ew.Body.String())
	}
	w := postFigure(t, s.Handler(), "5", false)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "stub 5") {
		t.Fatalf("repeat figure: status %d\nbody: %s", w.Code, w.Body.String())
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_jobs_total"]; got != 1 {
		t.Errorf("serve_jobs_total = %d, want 1: the repeat recomputed the figure", got)
	}
}
