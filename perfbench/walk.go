package main

import (
	"fmt"
	"sort"
	"time"

	"pcstall/internal/chaos"
	"pcstall/internal/clock"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/exp"
	"pcstall/internal/oracle"
	"pcstall/internal/orchestrate"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// jobRecord is one job a traced run executed, with the result it
// settled and its class.
type jobRecord struct {
	Job   orchestrate.Job
	Res   *dvfs.Result
	Class string        // "fork" or "nofork"
	Host  time.Duration // the job's host time inside the workload
}

// designClass is "fork" for designs whose policy consumes oracle
// fork-pre-execute sampling and "nofork" otherwise.
func designClass(design string) (string, error) {
	d, err := core.DesignByName(design)
	if err != nil {
		return "", err
	}
	if d.New().Truth() != dvfs.NoTruth {
		return "fork", nil
	}
	return "nofork", nil
}

// walkStratum sorts a job into the strata the layer walk samples from:
// fork designs, the PC-indexed predictor, and every other design.
func walkStratum(r jobRecord) string {
	switch {
	case r.Class == "fork":
		return "fork"
	case r.Job.Design == "PCSTALL":
		return "pcstall"
	}
	return "other"
}

// walkPerStratum is how many jobs the walk takes from each stratum.
const walkPerStratum = 4

// walkPick is one sampled job with its stratum and the stratum's total
// host time in the workload.
type walkPick struct {
	rec         jobRecord
	stratum     string
	stratumHost time.Duration
}

// pickWalk draws a seeded stratified sample of jobs. Job sizes within a
// stratum vary by two orders of magnitude (1 µs vs 100 µs epochs), so
// the summary scales each stratum's walked times to the stratum's known
// host time rather than to its job count.
func pickWalk(jobs []jobRecord, seed uint64) []walkPick {
	strata := map[string][]jobRecord{}
	host := map[string]time.Duration{}
	for _, r := range jobs {
		s := walkStratum(r)
		strata[s] = append(strata[s], r)
		host[s] += r.Host
	}
	names := make([]string, 0, len(strata))
	for s := range strata {
		names = append(names, s)
	}
	sort.Strings(names)
	rng := newRand(seed ^ 0x3a1c)
	var out []walkPick
	for _, s := range names {
		rs := strata[s]
		sort.Slice(rs, func(i, j int) bool { return rs[i].Job.Key() < rs[j].Job.Key() })
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		n := min(walkPerStratum, len(rs))
		for _, r := range rs[:n] {
			out = append(out, walkPick{rec: r, stratum: s, stratumHost: host[s]})
		}
	}
	return out
}

// timedPolicy times every Decide of the policy it wraps.
type timedPolicy struct {
	dvfs.Policy
	decide time.Duration
	calls  int
}

func (p *timedPolicy) Decide(ctx *dvfs.Context, elapsed *sim.EpochSample, obj dvfs.Objective, pred [][]float64, choice []int) {
	t0 := time.Now()
	p.Policy.Decide(ctx, elapsed, obj, pred, choice)
	p.decide += time.Since(t0)
	p.calls++
}

// walkTimes is one walked job's split of host time across the layers.
type walkTimes struct {
	run            time.Duration // the whole dvfs.Run of step 1
	decide         time.Duration
	decideN        int
	sample         time.Duration // oracle SampleNext in the replay
	sampleN        int
	setFreq        time.Duration
	advance        time.Duration // sim RunUntil in the replay
	advanceSimPs   int64
	collect        time.Duration
	collectN       int
	pcHit          float64 // PCStall.HitRatio, for PCSTALL jobs
	pc             bool
	committedTotal int64
}

// jobScale is the workload scale exp's job executor runs a job at:
// long-epoch jobs get proportionally longer apps, capped at 12x.
func jobScale(j orchestrate.Job) float64 {
	scale := j.Scale
	if boost := float64(j.EpochPs) / float64(8*clock.Microsecond); boost > 1 {
		scale *= min(boost, 12)
	}
	return scale
}

// buildGPU builds a job's simulator with the public sim and workload
// calls exp's executor makes.
func buildGPU(j orchestrate.Job) (*sim.GPU, error) {
	cfg := sim.DefaultConfig(j.CUs)
	cfg.Seed = j.Seed
	cfg.Domains.CUsPerDomain = j.CUsPerDomain
	gen := workload.DefaultGenConfig(j.CUs)
	gen.Scale = jobScale(j)
	gen.Seed = j.Seed + 6
	a, err := workload.Build(j.App, gen)
	if err != nil {
		return nil, err
	}
	g, err := sim.New(cfg, a.Kernels, a.Launches)
	if err != nil {
		return nil, err
	}
	if j.MaxCycles > 0 {
		g.Cfg.MaxCycles = j.MaxCycles
	}
	return g, nil
}

// walkJob splits one job's host time across the layers of dvfs.Run. It
// runs the job once with per-epoch records and a Decide-timing policy,
// then replays the recorded frequencies on a fresh GPU making the
// runner's own per-epoch calls (SampleNext, SetDomainFreq, RunUntil,
// CollectEpoch) and timing each. Both must reproduce the job exactly:
// the recorded result must equal the one the workload settled, and the
// replay must commit the recorded instructions every epoch.
func walkJob(rec jobRecord) (walkTimes, error) {
	var w walkTimes
	j := rec.Job
	if j.Chaos != "" {
		return w, fmt.Errorf("walk: job %s uses fault injection, which the replay does not model", j.Key())
	}
	d, err := core.DesignByName(j.Design)
	if err != nil {
		return w, err
	}
	obj, err := exp.ObjectiveByName(j.Objective)
	if err != nil {
		return w, err
	}
	pm := power.DefaultModelFor(j.CUs)
	epoch := clock.Time(j.EpochPs)
	rc := dvfs.RunConfig{
		Epoch:         epoch,
		Obj:           obj,
		PM:            &pm,
		MaxTime:       clock.Time(j.MaxTimePs),
		Record:        true,
		OracleSamples: j.OracleSamples,
		Chaos:         chaos.Config{},
		MaxCycles:     j.MaxCycles,
	}

	// Step 1: the job itself, with Decide timed.
	g, err := buildGPU(j)
	if err != nil {
		return w, err
	}
	inner := d.New()
	pol := &timedPolicy{Policy: inner}
	t0 := time.Now()
	res, err := dvfs.Run(g, pol, rc)
	w.run = time.Since(t0)
	if err != nil {
		return w, fmt.Errorf("walk %s: %w", j, err)
	}
	w.decide, w.decideN = pol.decide, pol.calls
	if pc, ok := inner.(*dvfs.PCStall); ok {
		w.pcHit, w.pc = pc.HitRatio(), true
	}
	if string(canonicalResult(&res)) != string(canonicalResult(rec.Res)) {
		return w, fmt.Errorf("walk diverged: %s recorded a different result than the workload settled", j)
	}

	// Step 2: replay the recorded frequencies with each call timed.
	if g, err = buildGPU(j); err != nil {
		return w, err
	}
	var smp *oracle.Sampler
	if inner.Truth() != dvfs.NoTruth {
		smp = &oracle.Sampler{
			Grid:      g.Cfg.Grid,
			PM:        &pm,
			CollectWF: inner.Truth() == dvfs.WFTruth,
			Samples:   j.OracleSamples,
		}
	}
	trans := clock.TransitionLatency(epoch)
	dmap := g.Cfg.Domains
	var es sim.EpochSample
	for e, r := range res.Records {
		if smp != nil {
			t := time.Now()
			smp.SampleNext(g, epoch)
			w.sample += time.Since(t)
			w.sampleN++
		}
		t := time.Now()
		for dom, f := range r.Freq {
			g.SetDomainFreq(dom, f, trans)
		}
		w.setFreq += time.Since(t)
		before := g.Now
		t = time.Now()
		g.RunUntil(g.Now + epoch)
		w.advance += time.Since(t)
		w.advanceSimPs += int64(g.Now - before)
		t = time.Now()
		g.CollectEpoch(&es)
		w.collect += time.Since(t)
		w.collectN++
		for dom := range r.ActualI {
			if got := es.DomainCommitted(dmap, dom); float64(got) != r.ActualI[dom] {
				return w, fmt.Errorf("walk diverged: %s epoch %d domain %d committed %d in the replay, %g in the run", j, e, dom, got, r.ActualI[dom])
			}
		}
	}
	if g.TotalCommitted != res.Totals.Committed || g.Finished == res.Truncated {
		return w, fmt.Errorf("walk diverged: %s replay ended with %d instructions (finished %v), the run with %d (truncated %v)",
			j, g.TotalCommitted, g.Finished, res.Totals.Committed, res.Truncated)
	}
	w.committedTotal = g.TotalCommitted
	return w, nil
}

// walkSummary is the weighted layer split over every walked job.
type walkSummary struct {
	decideUS, sampleUS, collectUS, advPerSim float64
	oracleShare, otherShare, pcHit           float64
}

// summarizeWalk scales each stratum's walked jobs to the stratum's host
// time in the workload, so weighted sums estimate workload totals.
func summarizeWalk(picks []walkPick, times []walkTimes) walkSummary {
	walked := map[string]float64{}
	for i, p := range picks {
		walked[p.stratum] += float64(times[i].run)
	}
	var run, rest, decide, decideN, sample, sampleN, collect, collectN, adv, advSim, pcHit, pcW float64
	for i, p := range picks {
		w, t := ratio(float64(p.stratumHost), walked[p.stratum]), times[i]
		run += w * float64(t.run)
		rest += w * float64(t.run-t.decide-t.sample-t.setFreq-t.advance-t.collect)
		decide += w * float64(t.decide)
		decideN += w * float64(t.decideN)
		sample += w * float64(t.sample)
		sampleN += w * float64(t.sampleN)
		collect += w * float64(t.collect)
		collectN += w * float64(t.collectN)
		adv += w * float64(t.advance)
		advSim += w * float64(t.advanceSimPs)
		if t.pc {
			pcHit += w * t.pcHit
			pcW += w
		}
	}
	us := float64(time.Microsecond)
	return walkSummary{
		decideUS:  ratio(decide, decideN) / us,
		sampleUS:  ratio(sample, sampleN) / us,
		collectUS: ratio(collect, collectN) / us,
		// Host µs per simulated µs: host ns / 1e3 over simulated ps / 1e6.
		advPerSim:   ratio(adv/1e3, advSim/1e6),
		oracleShare: ratio(sample, run),
		otherShare:  ratio(rest, run),
		pcHit:       ratio(pcHit, pcW),
	}
}
