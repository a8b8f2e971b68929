package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pcstall/internal/exp"
	"pcstall/internal/telemetry"
	"pcstall/internal/wire"
)

// tinySuite mirrors the exp package's unit-test platform: a small GPU,
// short workloads, one app.
func tinySuite(cacheDir string) *exp.Suite {
	cfg := exp.DefaultConfig()
	cfg.CUs = 2
	cfg.Scale = 0.25
	cfg.TraceEpochs = 12
	cfg.Apps = []string{"comd"}
	cfg.CacheDir = cacheDir
	return exp.NewSuite(cfg)
}

// TestFigureGolden holds the serving path to the CLI's output: the
// figure text a server renders must be byte-identical to what the suite
// (and therefore pcstall-exp) prints for the same figure on the same
// platform and cache directory. Any divergence means the HTTP layer
// perturbed the computation.
func TestFigureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	const figID = "10"
	cacheDir := t.TempDir()

	// Direct path: what pcstall-exp would print.
	direct := tinySuite(cacheDir)
	tb, err := direct.Figure(nil, figID)
	if err != nil {
		t.Fatalf("direct figure: %v", err)
	}
	var want strings.Builder
	tb.Fprint(&want)
	if err := direct.Close(); err != nil {
		t.Fatal(err)
	}

	// Serving path: same platform, same cache dir, through HTTP.
	suite := tinySuite(cacheDir)
	defer suite.Close()
	s, err := New(Config{
		Backend:   suite,
		Defaults:  suite.SimDefaults(),
		FigureIDs: suite.ArtifactIDs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/figures/"+figID, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d\nbody: %s", w.Code, w.Body.String())
	}
	var resp figureResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != want.String() {
		t.Errorf("served figure %s diverges from the direct rendering:\n--- direct ---\n%s--- served ---\n%s", figID, want.String(), resp.Text)
	}

	// The shared cache means the served run recomputed nothing.
	st := suite.Stats()
	if st.Misses != 0 {
		t.Errorf("served figure missed the shared cache %d times; keys diverged between CLI and server", st.Misses)
	}
}

// TestSimGolden: a POST /v1/sim that sets only app+design computes the
// same job (same cache key, same result) as the server's default
// platform run directly through the suite — and a replay of the same
// request, served from the rendered-body LRU, is byte-identical to the
// cold rendering, ETag and wire digest included.
func TestSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	suite := tinySuite(t.TempDir())
	defer suite.Close()
	reg := telemetry.New()
	s, err := New(Config{
		Backend:   suite,
		Defaults:  suite.SimDefaults(),
		FigureIDs: suite.ArtifactIDs(),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/sim",
		strings.NewReader(`{"app":"comd","design":"PCSTALL"}`)))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d\nbody: %s", w.Code, w.Body.String())
	}
	var resp simResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil {
		t.Fatal("sim response carries no result")
	}
	// The job the server built must already be settled under the same
	// key the orchestrator would compute for it.
	if _, ok := suite.Store().Get(resp.Job.Key()); !ok {
		t.Errorf("server job key %s not in the suite cache", resp.Job.Key())
	}
	if resp.ID != resp.Job.Key() {
		t.Errorf("response id %s != job key %s", resp.ID, resp.Job.Key())
	}

	// Replay: the hot tier must serve the settled rendering verbatim.
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, httptest.NewRequest("POST", "/v1/sim",
		strings.NewReader(`{"app":"comd","design":"PCSTALL"}`)))
	if rw.Code != http.StatusOK {
		t.Fatalf("replay status = %d\nbody: %s", rw.Code, rw.Body.String())
	}
	if !bytes.Equal(rw.Body.Bytes(), w.Body.Bytes()) {
		t.Error("LRU-served body diverges from the cold-rendered body")
	}
	if a, b := w.Header().Get("ETag"), rw.Header().Get("ETag"); a == "" || a != b {
		t.Errorf("ETag diverged on replay: %q vs %q", a, b)
	}
	a, b := w.Header().Get(wire.DigestHeader), rw.Header().Get(wire.DigestHeader)
	if a == "" || a != b {
		t.Errorf("%s diverged on replay: %q vs %q", wire.DigestHeader, a, b)
	}
	if got := wire.Digest(rw.Body.Bytes()); got != b {
		t.Errorf("replay digest stamp %q does not cover the body (%q)", b, got)
	}
	if got := reg.Snapshot().Counters["serve_body_cache_hits_total"]; got != 1 {
		t.Errorf("serve_body_cache_hits_total = %d, want 1 (the replay)", got)
	}
}
