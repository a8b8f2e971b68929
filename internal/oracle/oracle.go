// Package oracle implements the paper's fork-pre-execute methodology
// (§5.1, Fig. 13): at an epoch boundary the simulator state is forked
// into one sampling run per V/f state; sample s assigns domain d the
// state (d+s) mod K, shuffling frequencies across domains so that
// cross-domain interference is measured under a representative mix. Each
// sample pre-executes the next epoch and reports per-domain (and
// optionally per-wavefront) instructions committed, after which the
// parent re-executes the epoch with the frequencies the policy selects.
//
// The paper forks simulator processes; this package clones the in-process
// simulator state (sim.GPU.CloneInto), which is functionally identical
// and deterministic. Clones are copy-on-write — cache tag arrays, the
// bulk of the state, are shared with the parent until first mutation — so
// forking is cheap, and each fork is Released when its sample has been
// read so the parent regains in-place mutation of anything left shared.
// The forks of one epoch run on idle cores when there are any (see
// Sampler).
package oracle

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pcstall/internal/clock"
	"pcstall/internal/estimate"
	"pcstall/internal/metrics"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/telemetry"
)

// Telemetry is the sampler's metric bundle: how many simulator forks the
// fork-pre-execute methodology spawned and how much simulated time those
// forks pre-executed — the oracle's methodological cost (§5.1). A nil
// *Telemetry ignores recording.
type Telemetry struct {
	// Forks counts cloned simulators (one per sample).
	Forks *telemetry.Counter
	// PreExecPs counts simulated picoseconds executed inside forks.
	PreExecPs *telemetry.Counter
	// Interpolated counts (domain, state) cells filled by interpolation
	// rather than direct sampling (sample-count ablations).
	Interpolated *telemetry.Counter
	// Helpers counts forks that ran on a helper goroutine instead of the
	// caller's (the idle-core fan-out).
	Helpers *telemetry.Counter
}

// NewTelemetry builds the bundle on r (nil r yields nil).
func NewTelemetry(r *telemetry.Registry) *Telemetry {
	if r == nil {
		return nil
	}
	return &Telemetry{
		Forks:        r.Counter("oracle_forks_total", "simulator clones forked for pre-execution sampling"),
		PreExecPs:    r.Counter("oracle_preexec_ps_total", "simulated time pre-executed inside oracle forks, picoseconds"),
		Interpolated: r.Counter("oracle_interpolated_cells_total", "truth cells filled by interpolation instead of sampling"),
		Helpers:      r.Counter("oracle_fork_helpers_total", "oracle forks run on an idle-core helper goroutine instead of the caller's"),
	}
}

// WFTruth is one wavefront's sampled behaviour across all V/f states.
type WFTruth struct {
	// StartPC is the byte PC the wavefront held at the sampled epoch's
	// start (identical across samples — all forks share the start
	// state).
	StartPC uint64
	// AgeRank is the wavefront's age order within its CU at the epoch
	// start (0 = oldest, identical across samples).
	AgeRank int32
	// Committed[k] is the wavefront's committed instructions when its
	// domain ran state k.
	Committed []float64
	// ResidentPs[k] is its residency in that sample.
	ResidentPs []int64
}

// Truth is the sampled ground truth for one upcoming epoch.
type Truth struct {
	// EpochPs is the sampled epoch duration.
	EpochPs clock.Time
	// I[d][k] is instructions domain d commits at state k.
	I [][]float64
	// E[d][k] is domain d's core energy at state k (from the power
	// model applied to the sample's activity).
	E [][]float64
	// WF[cu] maps GlobalWave → per-state truth; populated only when the
	// sampler's CollectWF is set.
	WF []map[int64]*WFTruth
}

// Slope returns domain d's true sensitivity (instructions per MHz) by
// linear regression over the sampled states.
func (t *Truth) Slope(grid clock.Grid, d int) (slope, r2 float64) {
	xs := make([]float64, len(t.I[d]))
	for k := range xs {
		xs[k] = float64(grid.State(k))
	}
	slope, _, r2 = metrics.LinearFit(xs, t.I[d])
	return slope, r2
}

// WFEstimateTrue converts a wavefront's sampled curve into the linear
// (IRef, Slope) form the PC table stores — this is what the impractical
// ACCPC design feeds its table.
func (w *WFTruth) WFEstimateTrue(grid clock.Grid) estimate.WFEstimate {
	xs := make([]float64, len(w.Committed))
	for k := range xs {
		xs[k] = float64(grid.State(k))
	}
	slope, intercept, _ := metrics.LinearFit(xs, w.Committed)
	fRef := grid.Mid()
	return estimate.WFEstimate{IRef: intercept + slope*float64(fRef), Slope: slope}
}

// running counts the goroutines simulating right now: each dvfs.Run for
// its whole run (Occupy), each standalone SampleNext caller for its call,
// and each fork helper while it works. Samplers size their fan-out from
// it, so helpers only ever take cores nothing else is simulating on.
var running atomic.Int32

// Occupy counts the calling goroutine as simulating until the matching
// Vacate. dvfs.Run holds one for its whole run, forks or not, and samples
// with SampleNextOccupied so it is not counted twice.
func Occupy() { running.Add(1) }

// Vacate ends an Occupy.
func Vacate() { running.Add(-1) }

// claimHelpers reserves up to want helper goroutines, one per core that no
// counted goroutine is simulating on out of procs. Each helper must
// Vacate when done.
func claimHelpers(want int, procs int32) int {
	if want <= 0 {
		return 0
	}
	for {
		busy := running.Load()
		n := procs - busy
		if n <= 0 {
			return 0
		}
		if n > int32(want) {
			n = int32(want)
		}
		if running.CompareAndSwap(busy, busy+n) {
			return int(n)
		}
	}
}

// Sampler pre-executes upcoming epochs across the frequency grid.
//
// The forks of one SampleNext run on the caller's goroutine plus as many
// helper goroutines as there are idle cores (GOMAXPROCS minus the
// goroutines counted as simulating), at most one per extra sample. The
// width is decided afresh every call and the helpers are gone when it
// returns, so a saturated campaign stays serial while a half-idle server,
// or the last job of a figure, spreads its forks over the spare cores.
// A helper also leaves early, before taking another sample, once more
// goroutines are simulating than there are cores (a run started after
// the claim), so a claim oversubscribes the machine for one fork at most.
// Samples are dealt from a shared cursor; each writes only its own
// (domain, state) truth cells, and per-wavefront records are merged in
// sample order afterwards, so the Truth is byte-identical at any width.
//
// A Sampler keeps one fork GPU per worker slot and the per-sample scratch
// and reuses them across calls, so SampleNext must not be called
// concurrently on the same Sampler. Distinct Samplers may sample the same
// quiescent parent GPU from different goroutines — the copy-on-write
// clone machinery is built for exactly that — as long as nothing runs the
// parent meanwhile. The returned Truth never aliases the scratch state:
// every slice and map in it is freshly allocated, so it stays valid
// across later SampleNext calls.
type Sampler struct {
	Grid clock.Grid
	PM   *power.Model
	// CollectWF enables per-wavefront truth (needed by ACCPC and the
	// wavefront-level characterization figures; costs allocation).
	CollectWF bool
	// Samples optionally limits the number of forked samples (0 = one
	// per V/f state, the paper's configuration). Fewer samples leave
	// some (domain, state) cells estimated by linear interpolation —
	// used by the sample-count ablation.
	Samples int
	// Metrics, when non-nil, receives fork/pre-execute accounting.
	Metrics *Telemetry

	// forks[i] is worker slot i's fork (slot 0 is the caller's), cloned
	// from the parent afresh for every sample and Released after it.
	forks []*sim.GPU
	// wf[smp] is sample smp's per-wavefront scratch (CollectWF only).
	wf []sim.EpochSample

	// The call in progress, read by the helpers.
	parent *sim.GPU
	epoch  clock.Time
	truth  *Truth
	n      int32
	procs  int32
	next   atomic.Int32
	wg     sync.WaitGroup
}

// SampleNext forks g and pre-executes the next epoch of the given
// duration under shuffled frequency assignments. g itself is not
// modified. The caller counts as one simulating goroutine for the call.
func (s *Sampler) SampleNext(g *sim.GPU, epoch clock.Time) *Truth {
	Occupy()
	defer Vacate()
	return s.SampleNextOccupied(g, epoch)
}

// SampleNextOccupied is SampleNext for a caller already counted by
// Occupy.
func (s *Sampler) SampleNextOccupied(g *sim.GPU, epoch clock.Time) *Truth {
	k := s.Grid.Count()
	nd := g.Cfg.Domains.NumDomains()
	t := newTruth(epoch, nd, k)

	nSamples := s.Samples
	if nSamples <= 0 || nSamples > k {
		nSamples = k
	}
	if s.CollectWF {
		t.WF = make([]map[int64]*WFTruth, g.Cfg.NumCUs)
		for c := range t.WF {
			t.WF[c] = make(map[int64]*WFTruth)
		}
		for len(s.wf) < nSamples {
			s.wf = append(s.wf, sim.EpochSample{})
		}
	}

	s.parent, s.epoch, s.truth, s.n = g, epoch, t, int32(nSamples)
	s.next.Store(0)
	s.procs = int32(runtime.GOMAXPROCS(0))
	helpers := claimHelpers(nSamples-1, s.procs)
	for len(s.forks) <= helpers {
		s.forks = append(s.forks, nil)
	}
	s.wg.Add(helpers)
	for slot := 1; slot <= helpers; slot++ {
		go s.help(slot)
	}
	s.drain(0)
	s.wg.Wait()
	s.parent, s.truth = nil, nil

	if s.CollectWF {
		for smp := 0; smp < nSamples; smp++ {
			collectWF(g, t, &s.wf[smp], smp, k)
		}
	}
	if nSamples < k {
		if s.Metrics != nil {
			s.Metrics.Interpolated.Add(int64(nd * (k - nSamples)))
		}
		interpolate(t, nSamples)
	}
	return t
}

// newTruth allocates a zero Truth; the per-domain rows are windows of one
// slab per table.
func newTruth(epoch clock.Time, nd, k int) *Truth {
	t := &Truth{
		EpochPs: epoch,
		I:       make([][]float64, nd),
		E:       make([][]float64, nd),
	}
	is, es := make([]float64, nd*k), make([]float64, nd*k)
	for d := 0; d < nd; d++ {
		t.I[d] = is[d*k : (d+1)*k : (d+1)*k]
		t.E[d] = es[d*k : (d+1)*k : (d+1)*k]
	}
	return t
}

// help is a helper goroutine's body: drain samples, then give the core
// back.
func (s *Sampler) help(slot int) {
	s.drain(slot)
	Vacate()
	s.wg.Done()
}

// drain runs samples from the shared cursor on worker slot's fork until
// none are left, or, on a helper, until the machine is oversubscribed.
func (s *Sampler) drain(slot int) {
	for {
		if slot != 0 && running.Load() > s.procs {
			return
		}
		smp := int(s.next.Add(1)) - 1
		if smp >= int(s.n) {
			return
		}
		s.sample(slot, smp)
	}
}

// sample pre-executes sample smp on worker slot's fork and writes its
// truth cells.
func (s *Sampler) sample(slot, smp int) {
	g, t := s.parent, s.truth
	k := s.Grid.Count()
	nd := len(t.I)
	simds := g.Cfg.SIMDsPerCU
	cusPerDom := g.Cfg.Domains.CUsPerDomain

	c := g.CloneInto(s.forks[slot])
	s.forks[slot] = c
	// Reset the clone's per-epoch counters so the sample measures exactly
	// the pre-executed epoch, regardless of when the parent last
	// collected. ResetEpoch discards instead of collecting — no record
	// building for counters nobody reads.
	c.ResetEpoch()
	for d := 0; d < nd; d++ {
		c.SetDomainFreq(d, s.Grid.State((d+smp)%k), 0)
	}
	start := c.Now
	c.RunUntil(c.Now + s.epoch)
	dur := c.Now - start
	if s.Metrics != nil {
		s.Metrics.Forks.Inc()
		s.Metrics.PreExecPs.Add(int64(dur))
		if slot != 0 {
			s.Metrics.Helpers.Inc()
		}
	}
	// The per-domain truth reads the fork's live epoch counters directly;
	// the full EpochSample (with its per-wave records) is built only when
	// the caller wants per-wavefront truth, and only after these reads —
	// CollectEpoch resets the live counters.
	for d := 0; d < nd; d++ {
		st := (d + smp) % k
		var committed, issue int64
		lo, hi := g.Cfg.Domains.CUs(d)
		for cu := lo; cu < hi; cu++ {
			committed += c.CUs[cu].C.Committed
			issue += c.CUs[cu].C.IssueSlots
		}
		t.I[d][st] = float64(committed)
		t.E[d][st] = s.PM.DomainEpochEnergyJ(s.Grid.State(st), issue, cusPerDom, simds, dur) +
			s.PM.UncoreShareJ(dur, nd)
	}
	if s.CollectWF {
		c.CollectEpoch(&s.wf[smp])
	}
	// The fork is done: release its copy-on-write shares so the parent
	// regains in-place mutation and privatized arrays recycle. The fork's
	// own slices stay with the slot for the next sample.
	c.Release()
}

// collectWF records per-wavefront committed counts from one sample into t.
func collectWF(g *sim.GPU, t *Truth, es *sim.EpochSample, smp, k int) {
	for cu := range es.CUs {
		d := g.Cfg.Domains.DomainOf(cu)
		st := (d + smp) % k
		for i := range es.CUs[cu].WFs {
			rec := &es.CUs[cu].WFs[i]
			wt := t.WF[cu][rec.GlobalWave]
			if wt == nil {
				wt = &WFTruth{
					StartPC:    rec.StartPC,
					AgeRank:    rec.AgeRank,
					Committed:  make([]float64, k),
					ResidentPs: make([]int64, k),
				}
				t.WF[cu][rec.GlobalWave] = wt
			}
			wt.Committed[st] = float64(rec.C.Committed)
			wt.ResidentPs[st] = rec.ResidentPs
		}
	}
}

// interpolate fills the (domain, state) cells no sample covered linearly
// from the sampled ones (ablation mode only). Sample smp gives domain d
// state (d+smp) mod k, so with n samples cell (d, st) was sampled iff
// (st-d) mod k < n.
func interpolate(t *Truth, n int) {
	for d := range t.I {
		k := len(t.I[d])
		sampled := func(st int) bool { return ((st-d)%k+k)%k < n }
		xs := make([]float64, 0, k)
		ys := make([]float64, 0, k)
		es := make([]float64, 0, k)
		for st := range t.I[d] {
			if sampled(st) {
				xs = append(xs, float64(st))
				ys = append(ys, t.I[d][st])
				es = append(es, t.E[d][st])
			}
		}
		slopeI, interI, _ := metrics.LinearFit(xs, ys)
		slopeE, interE, _ := metrics.LinearFit(xs, es)
		for st := range t.I[d] {
			if !sampled(st) {
				t.I[d][st] = interI + slopeI*float64(st)
				t.E[d][st] = interE + slopeE*float64(st)
			}
		}
	}
}
