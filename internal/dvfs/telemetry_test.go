package dvfs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/telemetry"
	"pcstall/internal/workload"
)

// goldenRun executes one small run with the given registry attached.
func goldenRun(t *testing.T, design string, reg *telemetry.Registry) dvfs.Result {
	t.Helper()
	simCfg := sim.DefaultConfig(4)
	gen := workload.DefaultGenConfig(4)
	gen.Scale = 0.25
	app := workload.MustBuild("comd", gen)
	d, err := core.DesignByName(design)
	if err != nil {
		t.Fatal(err)
	}
	pm := power.DefaultModelFor(4)
	g, err := sim.New(simCfg, app.Kernels, app.Launches)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dvfs.Run(g, d.New(), dvfs.RunConfig{
		Epoch:   clock.Microsecond,
		Obj:     dvfs.ED2P,
		PM:      &pm,
		Record:  true,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTelemetryGolden is the determinism contract: a run with a registry
// attached must produce a byte-identical result to the same run without
// one. Telemetry observes the simulation; it never feeds back.
func TestTelemetryGolden(t *testing.T) {
	// ORACLE exercises the sampler bundle, PCSTALL the PC-table bundle.
	for _, design := range []string{"PCSTALL", "ORACLE", "ACCREAC"} {
		base := goldenRun(t, design, nil)
		reg := telemetry.New()
		instr := goldenRun(t, design, reg)
		bj, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		ij, err := json.Marshal(instr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bj, ij) {
			t.Fatalf("%s: telemetry perturbed the run:\nbase  %s\ninstr %s", design, bj, ij)
		}
	}
}

// TestTelemetryPopulated checks an instrumented run actually records:
// controller counters agree with the result, the sim bundle saw work,
// and policy-specific bundles (PC tables, oracle forks) fire.
func TestTelemetryPopulated(t *testing.T) {
	reg := telemetry.New()
	res := goldenRun(t, "PCSTALL", reg)
	s := reg.Snapshot()
	if s.Counters["dvfs_runs_total"] != 1 {
		t.Fatalf("runs counter %d", s.Counters["dvfs_runs_total"])
	}
	if got := s.Counters["dvfs_epochs_total"]; got != int64(res.Epochs) {
		t.Fatalf("epochs counter %d, result says %d", got, res.Epochs)
	}
	if got := s.Counters["dvfs_transitions_total"]; got != res.Transitions {
		t.Fatalf("transitions counter %d, result says %d", got, res.Transitions)
	}
	if got := s.Counters["sim_instructions_committed_total"]; got <= 0 {
		t.Fatal("no committed instructions recorded")
	}
	if s.Counters["dvfs_objective_evals_total"] <= 0 {
		t.Fatal("no objective evaluations recorded")
	}
	if s.Counters["predict_pc_table_lookups_total"] <= 0 {
		t.Fatal("PCSTALL run recorded no PC-table lookups")
	}
	if hs := s.Histograms["dvfs_epoch_span_ps"]; hs.Count != int64(res.Epochs) {
		t.Fatalf("epoch span histogram count %d, want %d", hs.Count, res.Epochs)
	}
	if over, under := s.Counters["predict_over_total"], s.Counters["predict_under_total"]; over+under <= 0 {
		t.Fatal("no prediction direction recorded for a predicting policy")
	}

	oreg := telemetry.New()
	goldenRun(t, "ORACLE", oreg)
	os := oreg.Snapshot()
	if os.Counters["oracle_forks_total"] <= 0 {
		t.Fatal("ORACLE run recorded no forks")
	}
	if os.Counters["oracle_preexec_ps_total"] <= 0 {
		t.Fatal("ORACLE run recorded no pre-execute time")
	}
	// Whether any fork ran on a helper depends on idle cores; the counter
	// must be exported either way, and can never exceed the forks.
	helpers, ok := os.Counters["oracle_fork_helpers_total"]
	if !ok || helpers > os.Counters["oracle_forks_total"] {
		t.Fatalf("oracle_fork_helpers_total = %d (exported %v), forks %d", helpers, ok, os.Counters["oracle_forks_total"])
	}
}
