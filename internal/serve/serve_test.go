package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcstall/internal/dvfs"
	"pcstall/internal/exp"
	"pcstall/internal/orchestrate"
	"pcstall/internal/telemetry"
	"pcstall/internal/workload"
)

// stubBackend is a controllable Backend: RunSim counts calls, optionally
// blocks until released, and reports the contexts it ran under so tests
// can observe cancellation propagation. Its store keeps no records of
// its own; with a cold cache, RunSim persists there and the store reads
// records back like the orchestrator's does from a cache dir.
type stubBackend struct {
	mu         sync.Mutex
	simCalls   int32
	failN      int32         // fail the first N RunSim calls with an error
	block      chan struct{} // non-nil: RunSim waits for close (or ctx)
	figBlock   chan struct{} // non-nil: Figure waits for close (or ctx)
	ctxErrs    chan error    // non-nil: RunSim reports why it stopped
	cold       *orchestrate.Cache
	storeBytes int64 // the store's budget (0 = default)
	store      *orchestrate.Store
}

func (b *stubBackend) RunSim(ctx context.Context, j orchestrate.Job) (*dvfs.Result, error) {
	atomic.AddInt32(&b.simCalls, 1)
	if atomic.AddInt32(&b.failN, -1) >= 0 {
		return nil, fmt.Errorf("injected backend failure")
	}
	if b.block != nil {
		select {
		case <-b.block:
		case <-ctx.Done():
			if b.ctxErrs != nil {
				b.ctxErrs <- ctx.Err()
			}
			return nil, ctx.Err()
		}
	}
	res := &dvfs.Result{}
	if b.cold != nil {
		if _, err := b.cold.Put(j.Key(), j, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (b *stubBackend) Store() *orchestrate.Store {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.store == nil {
		b.store = orchestrate.NewStore(b.storeBytes, b.cold)
	}
	return b.store
}

// coldCache opens a result cache in a fresh directory holding an empty
// result for each job: settled records the server has never seen.
func coldCache(t *testing.T, jobs ...orchestrate.Job) *orchestrate.Cache {
	t.Helper()
	c, err := orchestrate.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, j := range jobs {
		if _, err := c.Put(j.Key(), j, &dvfs.Result{}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func (b *stubBackend) Figure(ctx context.Context, id string) (*exp.Table, error) {
	if b.figBlock != nil {
		select {
		case <-b.figBlock:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &exp.Table{Title: "stub " + id}, nil
}

func (b *stubBackend) Stats() orchestrate.Stats { return orchestrate.Stats{} }

// testDefaults is a minimal valid platform for request merging.
func testDefaults() orchestrate.Job {
	return orchestrate.Job{
		EpochPs:      1_000_000, // 1us
		Objective:    "ED2P",
		CUsPerDomain: 1,
		CUs:          4,
		Scale:        0.25,
		Seed:         1,
		MaxTimePs:    1_000_000_000,
	}
}

func newTestServer(t *testing.T, backend *stubBackend, mutate func(*Config)) (*Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.New()
	cfg := Config{
		Backend:   backend,
		Defaults:  testDefaults(),
		FigureIDs: []string{"5", "14"},
		Metrics:   reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, reg
}

// simBody builds a valid request body; seed differentiates job keys.
func simBody(seed uint64) string {
	app := workload.Names()[0]
	return fmt.Sprintf(`{"app":%q,"design":"PCSTALL","seed":%d}`, app, seed)
}

func postSim(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/sim", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeError(t *testing.T, w *httptest.ResponseRecorder) apiError {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not structured JSON: %v\nbody: %s", err, w.Body.String())
	}
	if e.Version == "" {
		t.Errorf("error body missing version: %s", w.Body.String())
	}
	return e
}

// TestBadRequests holds every client-side failure to a 400 with a
// structured {"version","error"} body whose message lists the valid
// names, so clients can self-correct without reading docs.
func TestBadRequests(t *testing.T) {
	s, _ := newTestServer(t, &stubBackend{}, nil)
	app := workload.Names()[0]

	cases := []struct {
		name, body, want string
	}{
		{"malformed JSON", `{"app":`, "decoding sim config"},
		{"unknown field", `{"app":"x","frobnicate":1}`, "frobnicate"},
		{"missing app", `{"design":"PCSTALL"}`, "available"},
		{"unknown app", `{"app":"nope","design":"PCSTALL"}`, app},
		{"unknown design", fmt.Sprintf(`{"app":%q,"design":"nope"}`, app), "PCSTALL"},
		{"both epochs", fmt.Sprintf(`{"app":%q,"design":"PCSTALL","epoch_ps":5,"epoch_us":5}`, app), "not both"},
		{"bad objective", fmt.Sprintf(`{"app":%q,"design":"PCSTALL","objective":"FAST"}`, app), "ED2P"},
		{"negative", fmt.Sprintf(`{"app":%q,"design":"PCSTALL","cus":-1}`, app), "non-negative"},
		{"bad domains", fmt.Sprintf(`{"app":%q,"design":"PCSTALL","cus":4,"cus_per_domain":3}`, app), "divide"},
		{"bad chaos", fmt.Sprintf(`{"app":%q,"design":"PCSTALL","chaos":"lol=1"}`, app), "chaos"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postSim(t, s.Handler(), tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400\nbody: %s", w.Code, w.Body.String())
			}
			if e := decodeError(t, w); !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}
}

// TestSingleflight: K identical concurrent POSTs run exactly one
// simulation; every response is byte-identical, and the singleflight
// counter records the K-1 joins.
func TestSingleflight(t *testing.T) {
	const k = 8
	backend := &stubBackend{block: make(chan struct{})}
	s, reg := newTestServer(t, backend, nil)

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
		codes  []int
	)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := postSim(t, s.Handler(), simBody(7))
			mu.Lock()
			bodies = append(bodies, w.Body.Bytes())
			codes = append(codes, w.Code)
			mu.Unlock()
		}()
	}
	// Let the requests pile onto the in-flight job, then release it.
	waitFor(t, func() bool {
		return reg.Counter("serve_singleflight_hits_total", "").Value() >= k-1
	})
	close(backend.block)
	wg.Wait()

	if got := atomic.LoadInt32(&backend.simCalls); got != 1 {
		t.Errorf("RunSim called %d times, want exactly 1", got)
	}
	if got := reg.Counter("serve_singleflight_hits_total", "").Value(); got != k-1 {
		t.Errorf("serve_singleflight_hits_total = %d, want %d", got, k-1)
	}
	for i, b := range bodies {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, codes[i], b)
		}
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("request %d body differs from request 0:\n%s\nvs\n%s", i, b, bodies[0])
		}
	}
	if len(bodies) > 0 && !strings.Contains(string(bodies[0]), `"status": "done"`) {
		t.Errorf("settled body missing done status: %s", bodies[0])
	}
}

// TestQueueFullSheds: with a full queue, a new distinct request is shed
// with 429 + Retry-After instead of queueing unboundedly.
func TestQueueFullSheds(t *testing.T) {
	backend := &stubBackend{block: make(chan struct{})}
	defer close(backend.block)
	s, reg := newTestServer(t, backend, func(c *Config) {
		c.MaxQueue = 1
		c.Workers = 1
	})

	// Fill the queue: an async request occupies the single slot.
	req := httptest.NewRequest("POST", "/v1/sim?async=1", strings.NewReader(simBody(1)))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("async admit: status %d, want 202\nbody: %s", w.Code, w.Body.String())
	}

	// A distinct job now sheds.
	w = postSim(t, s.Handler(), simBody(2))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\nbody: %s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	}
	decodeError(t, w)
	if got := reg.Counter(`serve_shed_total{class="cold"}`, "").Value(); got < 1 {
		t.Errorf(`serve_shed_total{class="cold"} = %d, want >= 1`, got)
	}

	// An identical request still joins: singleflight outranks shedding.
	req = httptest.NewRequest("POST", "/v1/sim?async=1", strings.NewReader(simBody(1)))
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Errorf("identical request while full: status %d, want 202 (singleflight join)", w.Code)
	}
}

// TestClientDisconnectCancels: when the only waiting client goes away,
// the job's context is cancelled and the simulation observes it.
func TestClientDisconnectCancels(t *testing.T) {
	backend := &stubBackend{
		block:   make(chan struct{}),
		ctxErrs: make(chan error, 1),
	}
	defer close(backend.block)
	s, reg := newTestServer(t, backend, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/sim", strings.NewReader(simBody(3)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, rerr := http.DefaultClient.Do(req)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- rerr
	}()

	// Wait until the stub is inside RunSim, then hang up.
	waitFor(t, func() bool { return atomic.LoadInt32(&backend.simCalls) == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("client request unexpectedly succeeded")
	}

	select {
	case err := <-backend.ctxErrs:
		if err == nil {
			t.Fatal("job context reported nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job context was not cancelled after the client disconnected")
	}
	waitFor(t, func() bool {
		return reg.Counter("serve_jobs_cancelled_total", "").Value() == 1
	})
}

// TestCacheShortCircuit: a cached result answers without admitting work.
func TestCacheShortCircuit(t *testing.T) {
	j := testDefaults()
	j.App = workload.Names()[0]
	j.Design = "PCSTALL"
	j.Seed = 9
	j.SimVersion = orchestrate.SimVersion
	backend := &stubBackend{cold: coldCache(t, j)}
	s, reg := newTestServer(t, backend, nil)

	w := postSim(t, s.Handler(), simBody(9))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200\nbody: %s", w.Code, w.Body.String())
	}
	if got := atomic.LoadInt32(&backend.simCalls); got != 0 {
		t.Errorf("RunSim called %d times for a cached job, want 0", got)
	}
	if got := reg.Counter("serve_cache_short_circuit_total", "").Value(); got != 1 {
		t.Errorf("serve_cache_short_circuit_total = %d, want 1", got)
	}
	if got := reg.Counter("serve_jobs_total", "").Value(); got != 0 {
		t.Errorf("serve_jobs_total = %d, want 0 (cache hits must not queue)", got)
	}
	// The settled record is pollable like any admitted job.
	var resp simResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v1/jobs/"+resp.ID, nil)
	pw := httptest.NewRecorder()
	s.Handler().ServeHTTP(pw, req)
	if pw.Code != http.StatusOK || !strings.Contains(pw.Body.String(), `"status": "done"`) {
		t.Errorf("poll after cache hit: status %d body %s", pw.Code, pw.Body.String())
	}
}

// TestAsyncLifecycle: 202 + Location, poll to done, SSE replays the
// settled frame.
func TestAsyncLifecycle(t *testing.T) {
	backend := &stubBackend{}
	s, _ := newTestServer(t, backend, nil)

	req := httptest.NewRequest("POST", "/v1/sim?async=1", strings.NewReader(simBody(4)))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202\nbody: %s", w.Code, w.Body.String())
	}
	loc := w.Header().Get("Location")
	if loc == "" {
		t.Fatal("202 missing Location header")
	}

	waitFor(t, func() bool {
		pw := httptest.NewRecorder()
		s.Handler().ServeHTTP(pw, httptest.NewRequest("GET", loc, nil))
		return strings.Contains(pw.Body.String(), `"status": "done"`)
	})

	// SSE on a settled job yields the done frame immediately.
	ew := httptest.NewRecorder()
	s.Handler().ServeHTTP(ew, httptest.NewRequest("GET", loc+"/events", nil))
	if !strings.Contains(ew.Body.String(), "event: done") {
		t.Errorf("SSE missing done frame:\n%s", ew.Body.String())
	}
}

// TestDrain: a draining server rejects new work with 503 and Drain
// returns once in-flight jobs settle.
func TestDrain(t *testing.T) {
	backend := &stubBackend{block: make(chan struct{})}
	s, _ := newTestServer(t, backend, nil)

	req := httptest.NewRequest("POST", "/v1/sim?async=1", strings.NewReader(simBody(5)))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("admit: status %d", w.Code)
	}

	s.StopAdmitting()
	w = postSim(t, s.Handler(), simBody(6))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503\nbody: %s", w.Code, w.Body.String())
	}
	decodeError(t, w)

	close(backend.block)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestDrainCancelsStragglers: a drain deadline cancels unsettled jobs
// rather than hanging forever.
func TestDrainCancelsStragglers(t *testing.T) {
	backend := &stubBackend{block: make(chan struct{})}
	defer close(backend.block)
	s, _ := newTestServer(t, backend, nil)

	req := httptest.NewRequest("POST", "/v1/sim?async=1", strings.NewReader(simBody(8)))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("admit: status %d", w.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
}

// TestListings: the registry endpoints serve the same names the
// registries' own unknown-name errors print.
func TestListings(t *testing.T) {
	s, _ := newTestServer(t, &stubBackend{}, nil)
	for _, tc := range []struct{ path, want string }{
		{"/v1/workloads", workload.Names()[0]},
		{"/v1/designs", "PCSTALL"},
		{"/v1/figures", "14"},
		{"/v1/version", "pcstall-sim"},
	} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", tc.path, nil))
		if w.Code != http.StatusOK {
			t.Errorf("%s: status %d", tc.path, w.Code)
		}
		if !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s body missing %q:\n%s", tc.path, tc.want, w.Body.String())
		}
		if v := w.Header().Get("Pcstall-Version"); v == "" {
			t.Errorf("%s: missing Pcstall-Version header", tc.path)
		}
	}

	// Unknown figure: 404 listing the valid ids.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/figures/nope", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown figure: status %d", w.Code)
	}
	if e := decodeError(t, w); !strings.Contains(e.Error, "14") {
		t.Errorf("unknown-figure error does not list ids: %q", e.Error)
	}

	// Unknown job: 404.
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/nope", nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("unknown job: status %d", w.Code)
	}
}

// TestFigureFlow: figures ride the same queue/singleflight machinery.
func TestFigureFlow(t *testing.T) {
	s, _ := newTestServer(t, &stubBackend{}, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/figures/5", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d\nbody: %s", w.Code, w.Body.String())
	}
	var resp figureResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Figure != "5" || resp.Status != "done" || resp.Table == nil {
		t.Errorf("unexpected figure response: %+v", resp)
	}
	if !strings.Contains(resp.Text, "stub 5") {
		t.Errorf("figure text missing table rendering: %q", resp.Text)
	}
}

// TestFailedJobNotPoisoned: a job that settles with an error must not
// poison its key — a retry with the same config recomputes instead of
// replaying the stale failure body until eviction.
func TestFailedJobNotPoisoned(t *testing.T) {
	backend := &stubBackend{failN: 1}
	s, _ := newTestServer(t, backend, nil)

	w := postSim(t, s.Handler(), simBody(11))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("first attempt: status %d, want 500\nbody: %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); !strings.Contains(e.Error, "injected") {
		t.Fatalf("first attempt error = %q, want the injected failure", e.Error)
	}

	w = postSim(t, s.Handler(), simBody(11))
	if w.Code != http.StatusOK {
		t.Fatalf("retry: status %d, want 200 (fresh computation)\nbody: %s", w.Code, w.Body.String())
	}
	if got := atomic.LoadInt32(&backend.simCalls); got != 2 {
		t.Errorf("RunSim called %d times, want 2 (retry must recompute)", got)
	}

	// A successfully settled job still singleflight-joins.
	w = postSim(t, s.Handler(), simBody(11))
	if w.Code != http.StatusOK {
		t.Fatalf("third attempt: status %d, want 200", w.Code)
	}
	if got := atomic.LoadInt32(&backend.simCalls); got != 2 {
		t.Errorf("RunSim called %d times after success, want still 2 (settled OK joins)", got)
	}
}

// TestCancelledJobNotPoisoned: after a client disconnect settles a job
// as cancelled, a fresh identical request recomputes rather than
// replaying the 499 body.
func TestCancelledJobNotPoisoned(t *testing.T) {
	backend := &stubBackend{
		block:   make(chan struct{}),
		ctxErrs: make(chan error, 1),
	}
	s, _ := newTestServer(t, backend, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/sim", strings.NewReader(simBody(12)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, rerr := http.DefaultClient.Do(req)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- rerr
	}()
	waitFor(t, func() bool { return atomic.LoadInt32(&backend.simCalls) == 1 })
	cancel()
	<-errc
	<-backend.ctxErrs
	// Wait for the cancelled settlement to land.
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, j := range s.jobs {
			if j.settled {
				return true
			}
		}
		return false
	})

	close(backend.block) // the retry's RunSim returns promptly
	w := postSim(t, s.Handler(), simBody(12))
	if w.Code != http.StatusOK {
		t.Fatalf("retry after cancel: status %d, want 200\nbody: %s", w.Code, w.Body.String())
	}
	if got := atomic.LoadInt32(&backend.simCalls); got != 2 {
		t.Errorf("RunSim called %d times, want 2 (cancelled key must recompute)", got)
	}
}

// TestAsyncJoinSurvivesSyncDisconnect: an async request that
// singleflight-joins a sync-admitted job registers durable interest —
// the job must run to completion even after the original sync waiter
// disconnects.
func TestAsyncJoinSurvivesSyncDisconnect(t *testing.T) {
	backend := &stubBackend{block: make(chan struct{})}
	s, reg := newTestServer(t, backend, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/sim", strings.NewReader(simBody(13)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, rerr := http.DefaultClient.Do(req)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- rerr
	}()
	waitFor(t, func() bool { return atomic.LoadInt32(&backend.simCalls) == 1 })

	// Async client joins the in-flight sync job.
	areq := httptest.NewRequest("POST", "/v1/sim?async=1", strings.NewReader(simBody(13)))
	aw := httptest.NewRecorder()
	s.Handler().ServeHTTP(aw, areq)
	if aw.Code != http.StatusAccepted {
		t.Fatalf("async join: status %d, want 202\nbody: %s", aw.Code, aw.Body.String())
	}
	loc := aw.Header().Get("Location")
	id := strings.TrimPrefix(loc, "/v1/jobs/")

	// Sync client hangs up; wait until its reference is gone.
	cancel()
	<-errc
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		j := s.jobs[id]
		return j != nil && j.refs == 0
	})

	// The job survived (detached); release it and poll to done.
	close(backend.block)
	waitFor(t, func() bool {
		pw := httptest.NewRecorder()
		s.Handler().ServeHTTP(pw, httptest.NewRequest("GET", loc, nil))
		return strings.Contains(pw.Body.String(), `"status": "done"`)
	})
	if got := reg.Counter("serve_jobs_cancelled_total", "").Value(); got != 0 {
		t.Errorf("serve_jobs_cancelled_total = %d, want 0 (async interest must keep the job alive)", got)
	}
	if got := atomic.LoadInt32(&backend.simCalls); got != 1 {
		t.Errorf("RunSim called %d times, want 1", got)
	}
}

// TestFigureLaneDoesNotStarveSims: figure jobs wait on their own
// single-slot lane, so a blocked figure backlog leaves every sim
// worker slot free.
func TestFigureLaneDoesNotStarveSims(t *testing.T) {
	backend := &stubBackend{figBlock: make(chan struct{})}
	s, _ := newTestServer(t, backend, func(c *Config) {
		c.Workers = 1
	})

	// Two figure jobs: one holds the figure lane, one queues behind it.
	for _, id := range []string{"5", "14"} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/figures/"+id+"?async=1", nil))
		if w.Code != http.StatusAccepted {
			t.Fatalf("figure %s admit: status %d", id, w.Code)
		}
	}

	// With a single sim worker, a sim must still complete while both
	// figure jobs are pending.
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postSim(t, s.Handler(), simBody(14)) }()
	select {
	case w := <-done:
		if w.Code != http.StatusOK {
			t.Fatalf("sim under figure backlog: status %d\nbody: %s", w.Code, w.Body.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sim starved: figure backlog is occupying sim worker slots")
	}

	close(backend.figBlock)
	waitFor(t, func() bool {
		pw := httptest.NewRecorder()
		s.Handler().ServeHTTP(pw, httptest.NewRequest("GET", "/v1/jobs/fig-14", nil))
		return strings.Contains(pw.Body.String(), `"status": "done"`)
	})
}

// waitFor polls cond with a deadline, failing the test on timeout.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met within 5s")
}
