package main

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"pcstall/internal/exp"
	"pcstall/internal/orchestrate"
)

// smallJob runs one small job through exp's own executor and returns it
// as a traced run would record it.
func smallJob(t *testing.T, app, design string) jobRecord {
	t.Helper()
	cfg := exp.DefaultConfig()
	cfg.CUs, cfg.Scale, cfg.Apps, cfg.Workers, cfg.NoCache = 2, 0.1, []string{app}, 1, true
	s := exp.NewSuite(cfg)
	defer s.Close()
	j := s.SimDefaults()
	j.App, j.Design = app, design
	res, err := s.RunSim(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	class, err := designClass(design)
	if err != nil {
		t.Fatal(err)
	}
	return jobRecord{Job: j, Res: res, Class: class}
}

func TestWalkReplaysTheJob(t *testing.T) {
	for _, c := range []struct{ app, design string }{
		{"dgemm", "PCSTALL"}, // predictor path, no oracle
		{"comd", "ORACLE"},   // fork-pre-execute path
	} {
		rec := smallJob(t, c.app, c.design)
		w, err := walkJob(rec)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.app, c.design, err)
		}
		epochs := rec.Res.Epochs
		if w.decideN != epochs || w.collectN != epochs {
			t.Errorf("%s/%s: %d decides and %d collects over %d epochs", c.app, c.design, w.decideN, w.collectN, epochs)
		}
		wantSamples := 0
		if rec.Class == "fork" {
			wantSamples = epochs
		}
		if w.sampleN != wantSamples {
			t.Errorf("%s/%s (%s): %d oracle samples over %d epochs", c.app, c.design, rec.Class, w.sampleN, epochs)
		}
		if w.committedTotal != rec.Res.Totals.Committed || w.advanceSimPs <= 0 {
			t.Errorf("%s/%s: replay committed %d over %d ps, job committed %d",
				c.app, c.design, w.committedTotal, w.advanceSimPs, rec.Res.Totals.Committed)
		}
		if c.design == "PCSTALL" && (!w.pc || w.pcHit <= 0 || w.pcHit > 1) {
			t.Errorf("PCSTALL walk reported hit ratio %v (pc=%v)", w.pcHit, w.pc)
		}
	}
}

func TestWalkRejectsADifferentResult(t *testing.T) {
	rec := smallJob(t, "dgemm", "CRISP")
	tampered := *rec.Res
	tampered.Totals.EnergyJ *= 1.0001
	rec.Res = &tampered
	if _, err := walkJob(rec); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("walk of a job whose settled result differs: err = %v, want a divergence", err)
	}
}

func TestPickWalk(t *testing.T) {
	var jobs []jobRecord
	add := func(n int, design, class string, host time.Duration) {
		for i := 0; i < n; i++ {
			jobs = append(jobs, jobRecord{Job: orchestrate.Job{App: "comd", Design: design, Seed: uint64(len(jobs))}, Class: class, Host: host})
		}
	}
	add(9, "ORACLE", "fork", 80*time.Millisecond)
	add(6, "PCSTALL", "nofork", 6*time.Millisecond)
	add(1, "CRISP", "nofork", 5*time.Millisecond)
	picks := pickWalk(jobs, 4)
	count := map[string]int{}
	for _, p := range picks {
		count[p.stratum]++
		want := map[string]time.Duration{"fork": 720 * time.Millisecond, "pcstall": 36 * time.Millisecond, "other": 5 * time.Millisecond}[p.stratum]
		if p.stratumHost != want {
			t.Errorf("stratum %s host time %v, want %v", p.stratum, p.stratumHost, want)
		}
	}
	if count["fork"] != walkPerStratum || count["pcstall"] != walkPerStratum || count["other"] != 1 {
		t.Errorf("picks per stratum %v, want %d, %d and 1", count, walkPerStratum, walkPerStratum)
	}
	again := pickWalk(jobs, 4)
	for i := range picks {
		if picks[i].rec.Job != again[i].rec.Job {
			t.Fatal("the same seed picked different jobs")
		}
	}
}

func TestSummarizeWalkScalesStrata(t *testing.T) {
	// Two strata: forks spend 3/4 of their run sampling, the rest none.
	// Forks take 90 of the workload's 100 units of host time, so the
	// oracle share is 0.9 × 3/4 however many jobs each stratum had.
	picks := []walkPick{
		{stratum: "fork", stratumHost: 90}, {stratum: "fork", stratumHost: 90},
		{stratum: "other", stratumHost: 10},
	}
	times := []walkTimes{
		{run: 40, sample: 30}, {run: 400, sample: 300},
		{run: 7},
	}
	if got := summarizeWalk(picks, times).oracleShare; math.Abs(got-0.675) > 1e-12 {
		t.Errorf("oracle share %v, want 0.675", got)
	}
}
