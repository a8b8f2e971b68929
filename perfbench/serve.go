package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pcstall/internal/dvfs"
)

// Set-ups timed per serve run: a cold server is ready in milliseconds,
// a hot one also warms its key pool.
const (
	coldSetups = 31
	hotSetups  = 3
	// crossChecks is how many served results a run recomputes in-process.
	crossChecks = 6
	// cpuSegmentsN is how many equal segments of the window the server's
	// CPU is read over; CPU metrics take the median segment, so a burst
	// of other load on the machine in one segment does not move them.
	cpuSegmentsN = 10
)

func serveSchedule(o opts) []arrival {
	if o.workload == "serve-hot" {
		return hotSchedule(o.seed, o.window)
	}
	return coldSchedule(o.seed, o.window)
}

// warmState is what fetching a fixed key set (the hot pool, the canary
// set) leaves behind: the exact body and ETag of every key, the results,
// and the requests' own timelines.
type warmState struct {
	bodies  map[simReq][]byte
	etags   map[simReq]string
	served  map[simReq]simResponse
	results map[string]*dvfs.Result
	start   time.Time
	outs    []outcome
}

// fetchAll sends every request at once (bounded by the generator's
// connections) and requires each to answer its request with a 200.
func fetchAll(ctx context.Context, base string, reqs []simReq) (warmState, error) {
	g := newLoadgen(base, runtime.NumCPU())
	defer g.close()
	g.keepBodies = true
	sched := make([]arrival, len(reqs))
	for i, q := range reqs {
		sched[i] = arrival{Req: q}
	}
	start, outs := g.run(ctx, sched)
	w := warmState{
		bodies:  map[simReq][]byte{},
		etags:   map[simReq]string{},
		served:  map[simReq]simResponse{},
		results: map[string]*dvfs.Result{},
		start:   start,
		outs:    outs,
	}
	for i, o := range outs {
		q := reqs[i]
		if o.Err != "" {
			return w, fmt.Errorf("fetching %v: %s", q, o.Err)
		}
		resp, err := decodeSim(o.Body)
		if err == nil {
			err = resp.answers(q)
		}
		if err != nil {
			return w, fmt.Errorf("fetching %v: %w", q, err)
		}
		w.bodies[q], w.etags[q], w.served[q] = o.Body, `"`+resp.ID+`"`, resp
		w.results[resp.ID] = resp.Result
	}
	return w, nil
}

// checkCold verifies every cold outcome beyond the generator's own
// transport checks: each 200 answers exactly its request, and a retried
// key gets the same bytes as its first answer. It returns the number of
// failed requests and the first answer for each key.
func checkCold(sched []arrival, outs []outcome) (int, map[simReq]simResponse) {
	failed := 0
	served := map[simReq]simResponse{}
	first := map[simReq][]byte{}
	for i := range outs {
		o, q := &outs[i], sched[i].Req
		if o.Err == "" {
			resp, err := decodeSim(o.Body)
			if err == nil {
				err = resp.answers(q)
			}
			if b, seen := first[q]; err == nil && seen && !bytes.Equal(b, o.Body) {
				err = fmt.Errorf("retry got different bytes than the first answer")
			}
			if err != nil {
				o.Err = err.Error()
			} else if _, seen := first[q]; !seen {
				first[q], served[q] = o.Body, resp
			}
		}
		if o.Err != "" {
			failed++
			if failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: request %d (%v) failed: %s\n", i, q, o.Err)
			}
		}
	}
	return failed, served
}

// failedOf counts failed outcomes.
func failedOf(outs []outcome) int {
	n := 0
	for i := range outs {
		if outs[i].Err != "" {
			n++
			if n <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: request %d failed: %s\n", i, outs[i].Err)
			}
		}
	}
	return n
}

// latencyValues adds the latency metrics of one schedule's outcomes.
func latencyValues(outs []outcome, values map[string]float64) error {
	lat := make([]float64, len(outs))
	var last time.Duration
	for i := range outs {
		lat[i] = ms(outs[i].latency())
		last = max(last, outs[i].Done)
	}
	for _, p := range []float64{50, 95, 99} {
		v, err := percentile(lat, p)
		if err != nil {
			return fmt.Errorf("request latencies: %w", err)
		}
		values[fmt.Sprintf("p%g_ms", p)] = v
	}
	values["wall_s"] = last.Seconds()
	return nil
}

// sampleServed picks up to n served requests by seed, always including
// a fork design when one was served.
func sampleServed(seed uint64, served map[simReq]simResponse, n int) map[simReq]simResponse {
	var fork, other []simReq
	for q := range served {
		if q.fork() {
			fork = append(fork, q)
		} else {
			other = append(other, q)
		}
	}
	sortReqs(fork)
	sortReqs(other)
	rng := newRand(seed ^ 0x5eed)
	rng.Shuffle(len(fork), func(i, j int) { fork[i], fork[j] = fork[j], fork[i] })
	rng.Shuffle(len(other), func(i, j int) { other[i], other[j] = other[j], other[i] })
	out := map[simReq]simResponse{}
	if len(fork) > 0 {
		out[fork[0]] = served[fork[0]]
	}
	for _, q := range append(other, fork...) {
		if len(out) >= n {
			break
		}
		out[q] = served[q]
	}
	return out
}

// segmentCPU returns each segment's CPU seconds and CPU microseconds per
// request due in it.
func segmentCPU(cpu []time.Duration, sched []arrival, window time.Duration) (secs, usPerReq []float64) {
	n := len(cpu)
	reqs := make([]int, n)
	for _, a := range sched {
		reqs[min(int(a.Due*time.Duration(n)/window), n-1)]++
	}
	for k, c := range cpu {
		secs = append(secs, c.Seconds())
		usPerReq = append(usPerReq, ratio(c.Seconds()*1e6, float64(reqs[k])))
	}
	return secs, usPerReq
}

// setupServer starts a fresh server and, for serve-hot, warms the pool.
func setupServer(ctx context.Context, o opts, i int) (*server, *warmState, error) {
	srv, err := startServer(o.bin, filepath.Join(o.work, fmt.Sprintf("srv%d", i)))
	if err != nil {
		return nil, nil, err
	}
	if o.workload != "serve-hot" {
		return srv, nil, nil
	}
	w, err := fetchAll(ctx, srv.base, hotPool())
	if err != nil {
		srv.kill()
		return nil, nil, fmt.Errorf("warming the hot pool: %w", err)
	}
	return srv, &w, nil
}

// runServe is the untraced serve-cold / serve-hot workload against a
// pcstall-serve process.
func runServe(ctx context.Context, o opts) (outcomeOf, error) {
	hot := o.workload == "serve-hot"
	sched := serveSchedule(o)
	nSetups := coldSetups
	if hot {
		nSetups = hotSetups
	}
	var setups []float64
	var srv *server
	var warm *warmState
	for i := 0; i < nSetups; i++ {
		if srv != nil {
			// Only the last set-up is measured; the others are
			// discarded without a drain, because pcstall-serve answers
			// /healthz before it installs its SIGTERM handler and a
			// drain request that early would kill it.
			srv.kill()
		}
		t0 := time.Now()
		var err error
		if srv, warm, err = setupServer(ctx, o, i); err != nil {
			return outcomeOf{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	conns := runtime.NumCPU()
	g := newLoadgen(srv.base, conns)
	defer g.close()
	g.keepBodies = !hot
	if hot {
		g.etags, g.expect = warm.etags, warm.bodies
	}
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return outcomeOf{}, err
	}
	type segResult struct {
		cpu []time.Duration
		err error
	}
	segs := make(chan segResult, 1)
	t0 := time.Now()
	go func() {
		cpu, err := cpuSegments(srv.pid(), t0, cpu0, o.window, cpuSegmentsN)
		segs <- segResult{cpu, err}
	}()
	_, outs := g.run(ctx, sched)
	seg := <-segs
	if seg.err != nil {
		return outcomeOf{}, seg.err
	}
	rss, err := procPeakRSS(srv.pid())
	if err != nil {
		return outcomeOf{}, err
	}
	st := g.stats(outs)
	if err := st.valid(conns, maxLateP99); err != nil {
		return outcomeOf{}, err
	}

	out := outcomeOf{attempted: len(sched), digestOK: true, notes: map[string]any{}}
	var sample map[simReq]simResponse
	if hot {
		out.failed = failedOf(outs)
		out.digest = resultsDigest(warm.results)
		sample = sampleServed(o.seed, warm.served, crossChecks)
	} else {
		var served map[simReq]simResponse
		out.failed, served = checkCold(sched, outs)
		canary, err := fetchAll(ctx, srv.base, canarySet())
		if err != nil {
			return outcomeOf{}, fmt.Errorf("canary set: %w", err)
		}
		out.digest = resultsDigest(canary.results)
		sample = sampleServed(o.seed, served, crossChecks)
		all := map[string]*dvfs.Result{}
		for _, r := range served {
			all[r.ID] = r.Result
		}
		out.notes["results_digest"], out.notes["unique_results"] = resultsDigest(all), len(all)
	}
	if out.digestOK, out.verified, err = digestCheck(o.workload, out.digest); err != nil {
		return outcomeOf{}, err
	}
	if err := crossCheck(ctx, sample); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		out.digestOK = false
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return outcomeOf{}, err
	}

	segCPU, usPerReq := segmentCPU(seg.cpu, sched, o.window)
	out.notes["cpu_us_per_req_segments"] = append([]float64(nil), usPerReq...)
	out.notes["requests"] = len(sched)
	out.notes["gen_late_p99_ms"] = ms(st.LateP99)
	out.notes["gen_conns"] = st.Conns
	out.values = map[string]float64{
		"setup_s":        median(setups),
		"cpu_s":          median(segCPU) * cpuSegmentsN,
		"cpu_us_per_req": median(usPerReq),
		"peak_rss_mb":    rss,
	}
	if err := latencyValues(outs, out.values); err != nil {
		return outcomeOf{}, err
	}
	return out, nil
}
