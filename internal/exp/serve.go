package exp

import (
	"context"
	"fmt"

	"pcstall/internal/clock"
	"pcstall/internal/dvfs"
	"pcstall/internal/orchestrate"
)

// Artifact names one regenerable experiment artifact (a paper figure or
// table, an ablation, or an extension study) together with the bound
// Suite method that produces it. Artifacts is the single source of
// truth for "what can be regenerated": the pcstall-exp CLI lists and
// dispatches from it, and the serving layer's POST /v1/figures/{id}
// resolves ids against it — so the two entry points cannot drift.
type Artifact struct {
	// ID is the identifier accepted on the CLI and in figure URLs.
	ID string
	// Run regenerates the artifact (panics with an error on campaign
	// failure; Suite.Figure converts that back into an error).
	Run func() *Table
	// Ablation marks ids pulled in by the "ablations" group.
	Ablation bool
	// ExplicitOnly marks studies that run only when named (f1, the
	// fault-injection sweep): they are this reproduction's own work,
	// not paper artifacts, so "all" excludes them.
	ExplicitOnly bool
}

// Artifacts returns every regenerable artifact in canonical order.
func (s *Suite) Artifacts() []Artifact {
	return []Artifact{
		{ID: "1a", Run: s.Figure1a}, {ID: "1b", Run: s.Figure1b},
		{ID: "5", Run: s.Figure5}, {ID: "6", Run: s.Figure6},
		{ID: "7a", Run: s.Figure7a}, {ID: "7b", Run: s.Figure7b},
		{ID: "8", Run: s.Figure8}, {ID: "10", Run: s.Figure10},
		{ID: "11a", Run: s.Figure11a}, {ID: "11b", Run: s.Figure11b},
		{ID: "t1", Run: s.Table1}, {ID: "t2", Run: s.Table2}, {ID: "t3", Run: s.Table3},
		{ID: "14", Run: s.Figure14}, {ID: "15", Run: s.Figure15}, {ID: "16", Run: s.Figure16},
		{ID: "17", Run: s.Figure17}, {ID: "18a", Run: s.Figure18a}, {ID: "18b", Run: s.Figure18b},
		{ID: "a1", Run: s.AblTableSize, Ablation: true},
		{ID: "a2", Run: s.AblOffsetBits, Ablation: true},
		{ID: "a3", Run: s.AblTableScope, Ablation: true},
		{ID: "a4", Run: s.AblAgeCoef, Ablation: true},
		{ID: "a5", Run: s.AblAlphaFallback, Ablation: true},
		{ID: "a6", Run: s.AblOracleSamples, Ablation: true},
		{ID: "a7", Run: s.AblEstimators, Ablation: true},
		{ID: "a8", Run: s.AblEpochMode, Ablation: true},
		{ID: "e1", Run: s.Extensions},
		{ID: "f1", Run: s.FigureFaultSweep, ExplicitOnly: true},
	}
}

// ArtifactIDs returns the artifact ids in canonical order.
func (s *Suite) ArtifactIDs() []string {
	arts := s.Artifacts()
	ids := make([]string, len(arts))
	for i, a := range arts {
		ids[i] = a.ID
	}
	return ids
}

// Figure regenerates artifact id, converting the figure methods' error
// panics (the harness fail-fast path) back into errors; genuine bugs
// keep panicking. When ctx is non-nil it replaces the Suite's campaign
// context for the duration of the call, so a per-request deadline or a
// client disconnect winds the figure's simulations down at their next
// epoch boundary. Like every figure method, Figure is not safe for
// concurrent use — callers serving concurrent requests must serialize
// (the serving layer holds one figure at a time).
func (s *Suite) Figure(ctx context.Context, id string) (t *Table, err error) {
	var run func() *Table
	for _, a := range s.Artifacts() {
		if a.ID == id {
			run = a.Run
			break
		}
	}
	if run == nil {
		return nil, fmt.Errorf("exp: unknown artifact %q (available: %v)", id, s.ArtifactIDs())
	}
	if ctx != nil {
		saved := s.ctx
		s.ctx = ctx
		defer func() { s.ctx = saved }()
	}
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				t, err = nil, e
				return
			}
			panic(p)
		}
	}()
	return run(), nil
}

// RunSim executes one simulation job through the Suite's orchestrator
// under the caller's context — the serving layer's POST /v1/sim entry.
// Unlike the figure methods it is safe for concurrent use: jobs are
// pure functions of their description and the orchestrator memoizes
// concurrent duplicates.
func (s *Suite) RunSim(ctx context.Context, j orchestrate.Job) (*dvfs.Result, error) {
	return s.orch.RunJob(ctx, j)
}

// Store returns the orchestrator's settled-result store, where a serving
// layer finds settled records and keeps their rendered bodies.
func (s *Suite) Store() *orchestrate.Store { return s.orch.Store() }

// SimDefaults returns the Suite's platform parameters as the defaults a
// serving layer should apply to sparse simulation requests, so a
// request that specifies only {app, design} lands on exactly the same
// job key a CLI campaign on this Suite would compute: the paper's 1µs
// epoch, the ED²P objective, and per-CU V/f domains.
func (s *Suite) SimDefaults() orchestrate.Job {
	return s.job(cell{epoch: clock.Microsecond, obj: dvfs.ED2P.Name(), cusDom: 1})
}
