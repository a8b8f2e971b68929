package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"pcstall/internal/dvfs"
	"pcstall/internal/exp"
	"pcstall/internal/orchestrate"
	"pcstall/internal/serve"
	"pcstall/internal/telemetry"
	"pcstall/internal/tracing"
)

// tracer times calls into the program's layers from outside it: the
// serve.Config.Backend seam and the exp.Config.RunVia seam. It also
// keeps every settled job for the layer walk.
type tracer struct {
	rec *recorder

	mu   sync.Mutex
	jobs []jobRecord
}

func newTracer(capacity int) *tracer {
	return &tracer{rec: newRecorder(capacity)}
}

// runVia is the exp.Config.RunVia seam: it wraps the suite's own
// executor in an "orchestrate.job" span parented to whatever span the
// job was submitted under.
func (t *tracer) runVia(local orchestrate.RunFunc, _ func(string) (*dvfs.Result, bool)) orchestrate.RunFunc {
	return func(ctx context.Context, j orchestrate.Job, reg *telemetry.Registry) (*dvfs.Result, error) {
		parent := spanFrom(ctx)
		id, start := t.rec.open()
		r, err := local(withSpan(ctx, id, parent.trace), j, reg)
		end := time.Since(t.rec.epoch)
		class, _ := designClass(j.Design) // an unknown design fails the job itself
		t.rec.add(span{ID: id, Parent: parent.id, Trace: parent.trace, Name: "orchestrate.job",
			Start: start, End: end, Key: j.Key(), Class: class})
		if err == nil {
			t.mu.Lock()
			t.jobs = append(t.jobs, jobRecord{Job: j, Res: r, Class: class, Host: end - start})
			t.mu.Unlock()
		}
		return r, err
	}
}

func (t *tracer) jobList() []jobRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]jobRecord(nil), t.jobs...)
}

// tracedBackend is the serve.Config.Backend seam: RunSim runs inside a
// "serve.backend" span whose trace is the job key.
type tracedBackend struct {
	serve.Backend
	t *tracer
}

func (b tracedBackend) RunSim(ctx context.Context, j orchestrate.Job) (*dvfs.Result, error) {
	key := j.Key()
	id, start := b.t.rec.open()
	r, err := b.Backend.RunSim(withSpan(ctx, id, key), j)
	b.t.rec.add(span{ID: id, Trace: key, Name: "serve.backend", Start: start,
		End: time.Since(b.t.rec.epoch), Key: key})
	return r, err
}

// tailPct is the percentile the per-layer tails report: p95 when the
// sample supports it, else the highest lower candidate that it does.
func tailPct(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, err := percentile(xs, highestSupported(len(xs), 95, 90, 75, 50))
	if err != nil {
		panic(err) // highestSupported only returns supported percentiles
	}
	return v
}

func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// ms converts a span-time difference to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// jobLayerValues fills the job-level metrics every workload reports:
// per-class job time from the RunVia spans, the layer walk, and the
// simulated counters the run registry accumulated.
func jobLayerValues(t *tracer, reg *telemetry.Registry, seed uint64, v map[string]float64) (map[string]any, error) {
	byClass := map[string][]float64{}
	for _, s := range t.rec.snapshot() {
		if s.Name == "orchestrate.job" {
			byClass[s.Class] = append(byClass[s.Class], ms(s.dur()))
		}
	}
	v["dvfs.job_ms.fork"] = p50(byClass["fork"])
	v["dvfs.job_ms.nofork"] = p50(byClass["nofork"])

	picks := pickWalk(t.jobList(), seed)
	if len(picks) == 0 {
		return nil, fmt.Errorf("layer walk: the workload settled no jobs")
	}
	times := make([]walkTimes, len(picks))
	for i, p := range picks {
		w, err := walkJob(p.rec)
		if err != nil {
			return nil, err
		}
		times[i] = w
	}
	ws := summarizeWalk(picks, times)
	v["dvfs.other_share"] = ws.otherShare
	v["oracle.sample_us"] = ws.sampleUS
	v["oracle.share"] = ws.oracleShare
	v["sim.advance_us_per_sim_us"] = ws.advPerSim
	v["sim.collect_us"] = ws.collectUS
	v["predict.decide_us"] = ws.decideUS
	v["predict.pc_hit_share"] = ws.pcHit

	c := reg.Snapshot().Counters
	v["oracle.forks"] = float64(c["oracle_forks_total"])
	v["sim.instr"] = float64(c["sim_instructions_committed_total"])
	v["mem.l1_hit_share"] = ratio(float64(c["sim_l1_hits_total"]), float64(c["sim_l1_hits_total"]+c["sim_l1_misses_total"]))
	v["mem.l2_hit_share"] = ratio(float64(c["sim_l2_hits_total"]), float64(c["sim_l2_hits_total"]+c["sim_l2_misses_total"]))
	return map[string]any{"walked_jobs": len(picks), "jobs": len(t.jobList())}, nil
}

// tracedCampaign regenerates the campaign figures in-process through an
// exp.Suite configured as pcstall-exp configures itself, with the RunVia
// seam traced and a run registry attached, then walks a sample of its
// jobs. The untraced reference is one pcstall-exp pass.
func tracedCampaign(ctx context.Context, o opts) (outcomeOf, error) {
	ref := runPass(o.bin, filepath.Join(o.work, "ref"))
	if ref.err != nil {
		return outcomeOf{}, ref.err
	}
	t := newTracer(1024)
	reg := telemetry.New()
	cfg := suiteConfig()
	cfg.RunVia = t.runVia
	cfg.Metrics = reg
	cfg.CacheDir = filepath.Join(o.work, "traced")
	if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
		return outcomeOf{}, err
	}
	s := exp.NewSuite(cfg)
	var text strings.Builder
	figStart := map[int64]time.Duration{}
	t0 := time.Now()
	for _, fig := range campaignFigures {
		id, start := t.rec.open()
		tab, err := s.Figure(withSpan(ctx, id, "fig-"+fig), fig)
		t.rec.add(span{ID: id, Trace: "fig-" + fig, Name: "exp.figure", Start: start, End: time.Since(t.rec.epoch)})
		if err != nil {
			s.Close()
			return outcomeOf{}, fmt.Errorf("traced figure %s: %w", fig, err)
		}
		figStart[id] = start
		tab.Fprint(&text)
	}
	wall := time.Since(t0)
	st := s.Stats()
	if err := s.Close(); err != nil {
		return outcomeOf{}, err
	}

	out := outcomeOf{attempted: st.Misses}
	out.digest = sha([]byte(text.String()))
	var err error
	if out.digestOK, out.verified, err = digestCheck(o.workload, out.digest); err != nil {
		return outcomeOf{}, err
	}
	if out.digest != sha(ref.stdout) {
		fmt.Fprintln(os.Stderr, "perfbench: the traced campaign printed different figures than pcstall-exp")
		out.digestOK = false
	}

	var wait []float64
	var busy, longest time.Duration
	for _, sp := range t.rec.snapshot() {
		if sp.Name != "orchestrate.job" {
			continue
		}
		wait = append(wait, ms(sp.Start-figStart[sp.Parent]))
		busy += sp.dur()
		longest = max(longest, sp.dur())
	}
	v := map[string]float64{
		// The campaign never touches the serving layer.
		"serve.self_us":            0,
		"serve.admit_wait_ms":      0,
		"serve.body_hit_share":     0,
		"serve.not_modified_share": 0,
		"serve.singleflight_joins": 0,
		"serve.heap_kb_per_result": 0,
		"gen.late_p99_ms":          0,

		"orchestrate.wait_ms":         tailPct(wait),
		"orchestrate.memo_hit_share":  ratio(float64(st.MemHits), float64(st.MemHits+st.DiskHits+st.Misses)),
		"orchestrate.busy_share":      ratio(float64(busy), float64(st.Workers)*float64(wall)),
		"orchestrate.straggler_share": ratio(float64(longest), float64(wall)),
		"trace.overhead_share":        ratio(float64(wall), float64(ref.wall)) - 1,
	}
	notes, err := jobLayerValues(t, reg, o.seed, v)
	if err != nil {
		return outcomeOf{}, err
	}
	out.values = v
	out.notes = notes
	out.notes["traced_wall_s"], out.notes["untraced_wall_s"] = wall.Seconds(), ref.wall.Seconds()
	return out, writeSpans(t, o)
}

func writeSpans(t *tracer, o opts) error {
	dir := mustMkdir(filepath.Join(o.results, "traces"))
	return t.rec.writeFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC is the live heap right after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// hostedServer is pcstall-serve's serving stack built in-process the way
// its main builds it, with the Backend and RunVia seams traced.
type hostedServer struct {
	suite *exp.Suite
	srv   *serve.Server
	http  *http.Server
	base  string
	reg   *telemetry.Registry
	log   *os.File
}

func hostServer(ctx context.Context, t *tracer, dir string) (*hostedServer, error) {
	if err := os.MkdirAll(filepath.Join(dir, "cache"), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		return nil, err
	}
	logger := slog.New(slog.NewTextHandler(logf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	reg := telemetry.New()
	cfg := suiteConfig()
	cfg.Metrics = reg
	cfg.Log = logger
	cfg.Ctx = ctx
	cfg.CacheDir = filepath.Join(dir, "cache")
	cfg.RunVia = t.runVia
	suite := exp.NewSuite(cfg)
	srv, err := serve.New(serve.Config{
		Backend:    tracedBackend{Backend: suite, t: t},
		Defaults:   suite.SimDefaults(),
		MaxQueue:   64,
		Workers:    cfg.Workers,
		FigureIDs:  suite.ArtifactIDs(),
		Metrics:    reg,
		BaseCtx:    ctx,
		MaxTimeout: 10 * time.Minute,
		Tracer:     tracing.New("pcstall-serve", tracing.DefaultCapacity),
		Log:        logger,
	})
	if err != nil {
		suite.Close()
		logf.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		suite.Close()
		logf.Close()
		return nil, err
	}
	h := &hostedServer{suite: suite, srv: srv, reg: reg, log: logf, base: "http://" + ln.Addr().String(),
		http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 120 * time.Second}}
	go func() { _ = h.http.Serve(ln) }() // returns ErrServerClosed once close shuts it down
	return h, nil
}

// close drains the server the way pcstall-serve does on SIGTERM.
func (h *hostedServer) close() error {
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := h.srv.Drain(dctx)
	_ = h.http.Shutdown(dctx) // connections are idle once the generator is done
	cerr := h.suite.Close()
	h.log.Close()
	if derr != nil {
		return derr
	}
	return cerr
}

// counterDelta is how much each serve counter moved between snapshots.
func counterDelta(before, after telemetry.Snapshot, name string) float64 {
	return float64(after.Counters[name] - before.Counters[name])
}

// tracedServe runs the serve workload against pcstall-serve's stack
// hosted in-process, with request, backend and job spans, then walks a
// sample of the jobs. The untraced reference is a full untraced run.
func tracedServe(ctx context.Context, o opts) (outcomeOf, error) {
	refOpts := o
	refOpts.work = filepath.Join(o.work, "ref")
	ref, err := runServe(ctx, refOpts)
	if err != nil {
		return outcomeOf{}, fmt.Errorf("untraced reference run: %w", err)
	}
	hot := o.workload == "serve-hot"
	sched := serveSchedule(o)
	t := newTracer(4*len(sched) + 1024)
	h, err := hostServer(ctx, t, filepath.Join(o.work, "traced"))
	if err != nil {
		return outcomeOf{}, err
	}
	closed := false
	defer func() {
		if !closed {
			_ = h.close() // already failing
		}
	}()
	var warm warmState
	if hot {
		if warm, err = fetchAll(ctx, h.base, hotPool()); err != nil {
			return outcomeOf{}, fmt.Errorf("warming the hot pool: %w", err)
		}
	}
	conns := runtime.NumCPU()
	g := newLoadgen(h.base, conns)
	defer g.close()
	g.keepBodies = !hot
	if hot {
		g.etags, g.expect = warm.etags, warm.bodies
	}
	stats0, snap0 := h.suite.Stats(), h.reg.Snapshot()
	heap0 := heapAfterGC()
	cpu0 := selfCPU()
	start, outs := g.run(ctx, sched)
	cpu1 := selfCPU()
	heap1 := heapAfterGC()
	stats1, snap1 := h.suite.Stats(), h.reg.Snapshot()
	gs := g.stats(outs)
	if err := gs.valid(conns, maxLateP99Hosted); err != nil {
		return outcomeOf{}, err
	}

	out := outcomeOf{attempted: len(sched), digestOK: true}
	var kept int // body bytes the generator itself retains
	// fixed is the run's other batch of requests: the hot pool warmed
	// during set-up, or the cold canary set sent after the window.
	fixed := warm
	if hot {
		out.failed = failedOf(outs)
	} else {
		out.failed, _ = checkCold(sched, outs)
		for i := range outs {
			kept += cap(outs[i].Body)
		}
		if fixed, err = fetchAll(ctx, h.base, canarySet()); err != nil {
			return outcomeOf{}, fmt.Errorf("canary set: %w", err)
		}
	}
	out.digest = resultsDigest(fixed.results)
	if out.digestOK, out.verified, err = digestCheck(o.workload, out.digest); err != nil {
		return outcomeOf{}, err
	}
	closed = true
	if err := h.close(); err != nil {
		return outcomeOf{}, fmt.Errorf("draining the hosted server: %w", err)
	}

	// Put every request the run sent on the recorder's time base. Queue
	// waits are measured over every RunSim the workload made, set-up
	// included (on serve-hot only the warm-up makes any); self time,
	// busy time and results over the measured window.
	w0 := t.rec.at(start)
	wEnd := w0
	for i := range outs {
		wEnd = max(wEnd, w0+outs[i].Done)
	}
	firstSent := map[string]time.Duration{}
	var windowReqs []span
	for _, b := range []struct {
		start  time.Time
		outs   []outcome
		window bool
	}{{start, outs, true}, {fixed.start, fixed.outs, false}} {
		base := t.rec.at(b.start)
		for i := range b.outs {
			oc := &b.outs[i]
			if oc.Key == "" {
				continue
			}
			req := span{Trace: oc.Key, Name: "request", Start: base + oc.Sent, End: base + oc.Done}
			t.rec.add(req)
			if b.window {
				windowReqs = append(windowReqs, req)
			}
			if s, ok := firstSent[oc.Key]; !ok || req.Start < s {
				firstSent[oc.Key] = req.Start
			}
		}
	}
	backendByKey := map[string][]span{}
	jobsByParent := map[int64][]span{}
	for _, s := range t.rec.snapshot() {
		switch s.Name {
		case "serve.backend":
			backendByKey[s.Key] = append(backendByKey[s.Key], s)
		case "orchestrate.job":
			jobsByParent[s.Parent] = append(jobsByParent[s.Parent], s)
		}
	}
	var self, admit, orchWait []float64
	for _, req := range windowReqs {
		self = append(self, float64(selfTime(req, backendByKey[req.Trace]))/float64(time.Microsecond))
	}
	var busy, longest time.Duration
	results := 0
	for key, bs := range backendByKey {
		for _, b := range bs {
			if s, ok := firstSent[key]; ok && s <= b.Start {
				admit = append(admit, ms(b.Start-s))
			}
			for _, j := range jobsByParent[b.ID] {
				orchWait = append(orchWait, ms(j.Start-b.Start))
				if j.Start >= w0 && j.Start <= wEnd {
					busy += j.dur()
					longest = max(longest, j.dur())
					results++
				}
			}
		}
	}
	windowWall := wEnd - w0
	replays := 0
	for _, a := range sched {
		if a.Replay {
			replays++
		}
	}
	lookups := float64((stats1.MemHits + stats1.DiskHits + stats1.Misses) - (stats0.MemHits + stats0.DiskHits + stats0.Misses))
	bodyHits := counterDelta(snap0, snap1, "serve_body_cache_hits_total")
	heapGrowth := float64(heap1) - float64(heap0) - float64(kept)
	v := map[string]float64{
		"serve.self_us":               p50(self),
		"serve.admit_wait_ms":         tailPct(admit),
		"serve.body_hit_share":        ratio(bodyHits, bodyHits+counterDelta(snap0, snap1, "serve_cache_short_circuit_total")),
		"serve.not_modified_share":    ratio(counterDelta(snap0, snap1, "serve_etag_hits_total"), float64(replays)),
		"serve.singleflight_joins":    counterDelta(snap0, snap1, "serve_singleflight_hits_total"),
		"serve.heap_kb_per_result":    ratio(heapGrowth, float64(results)) / 1024,
		"orchestrate.wait_ms":         tailPct(orchWait),
		"orchestrate.memo_hit_share":  ratio(float64(stats1.MemHits-stats0.MemHits), lookups),
		"orchestrate.busy_share":      ratio(float64(busy), float64(stats1.Workers)*float64(windowWall)),
		"orchestrate.straggler_share": ratio(float64(longest), float64(windowWall)),
		"gen.late_p99_ms":             ms(gs.LateP99),
	}
	lat := make([]float64, len(outs))
	for i := range outs {
		lat[i] = ms(outs[i].latency())
	}
	v["trace.overhead_share"] = ratio(median(lat), ref.values["p50_ms"]) - 1
	cpu := cpu1 - cpu0
	if hot && float64(busy) >= 0.1*float64(cpu) {
		return outcomeOf{}, fmt.Errorf("serve-hot ran %v of jobs in its window against %v of CPU: the sim/oracle bypass does not hold", busy, cpu)
	}
	notes, err := jobLayerValues(t, h.reg, o.seed, v)
	if err != nil {
		return outcomeOf{}, err
	}
	out.values = v
	out.notes = notes
	out.notes["window_job_share_of_cpu"] = ratio(float64(busy), float64(cpu))
	out.notes["gen_conns"] = gs.Conns
	out.notes["untraced_p50_ms"] = ref.values["p50_ms"]
	return out, writeSpans(t, o)
}
