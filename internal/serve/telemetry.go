package serve

import (
	"fmt"
	"sync"

	"pcstall/internal/orchestrate"
	"pcstall/internal/telemetry"
)

// laneMetrics is one admission lane's metric triplet. The series share
// base names and differ by a literal class label, so the Prometheus
// exposition groups them into proper labelled families:
// serve_queue_depth{class="cold"}, serve_shed_total{class="figure"}, ...
type laneMetrics struct {
	depth   *telemetry.Gauge
	running *telemetry.Gauge
	shed    *telemetry.Counter
}

// serveTelemetry is the serving layer's metric bundle: request counters
// by endpoint and status, per-class admission-control accounting (queue
// depth, running, sheds — one series per lane class), hot-tier body
// cache accounting, singleflight fan-out hits, and the two latency
// distributions that matter for capacity planning — time-in-queue and
// handler latency. Simulation-side metrics (orchestrate_*, sim_*) live
// in the same registry but are recorded by the layers below.
type serveTelemetry struct {
	reg *telemetry.Registry

	singleflight *telemetry.Counter
	cacheHits    *telemetry.Counter
	etagHits     *telemetry.Counter
	jobsTotal    *telemetry.Counter
	jobErrors    *telemetry.Counter
	jobsCanceled *telemetry.Counter

	bodyHits      *telemetry.Counter
	bodyEvictions *telemetry.Counter
	bodyEntries   *telemetry.Gauge
	bodyBytes     *telemetry.Gauge
	mu            sync.Mutex
	bodyEvicted   int64 // store body evictions already counted; guarded by mu

	lanes map[string]*laneMetrics

	draining *telemetry.Gauge

	queueWait *telemetry.Histogram
}

// newServeTelemetry builds the bundle on r; with a nil r every metric is
// nil, and recording into it is a no-op. Each admission lane the server
// runs ("cold"/"figure", or "all" when figures share the sim lane) gets
// its own labelled queue-depth/running/shed series.
func newServeTelemetry(r *telemetry.Registry, lanes []*lane) *serveTelemetry {
	t := &serveTelemetry{
		reg:           r,
		singleflight:  r.Counter("serve_singleflight_hits_total", "requests answered by joining an identical in-flight or settled job"),
		cacheHits:     r.Counter("serve_cache_short_circuit_total", "requests answered from the result cache without queueing"),
		etagHits:      r.Counter("serve_etag_hits_total", "settled responses answered 304 because If-None-Match named the job key"),
		jobsTotal:     r.Counter("serve_jobs_total", "jobs admitted to the queue"),
		jobErrors:     r.Counter("serve_job_errors_total", "admitted jobs that settled with an error"),
		jobsCanceled:  r.Counter("serve_jobs_cancelled_total", "admitted jobs cancelled before completing (client gone, deadline, drain)"),
		bodyHits:      r.Counter("serve_body_cache_hits_total", "requests answered with a rendered body from the result store, without re-rendering JSON"),
		bodyEvictions: r.Counter("serve_body_cache_evictions_total", "rendered bodies evicted from the result store to hold its byte budget"),
		bodyEntries:   r.Gauge("serve_body_cache_entries", "rendered bodies currently held by the result store"),
		bodyBytes:     r.Gauge("serve_body_cache_bytes", "bytes of rendered bodies currently held by the result store"),
		lanes:         make(map[string]*laneMetrics, len(lanes)),
		draining:      r.Gauge("serve_draining", "1 while the server is draining (new work is rejected)"),
		queueWait:     r.Phase("serve_time_in_queue"),
	}
	for _, ln := range lanes {
		class := ln.class
		t.lanes[class] = &laneMetrics{
			depth:   r.Gauge(fmt.Sprintf("serve_queue_depth{class=%q}", class), "admitted jobs waiting for a worker slot, by admission lane"),
			running: r.Gauge(fmt.Sprintf("serve_jobs_running{class=%q}", class), "jobs holding a serving worker slot now, by admission lane"),
			shed:    r.Counter(fmt.Sprintf("serve_shed_total{class=%q}", class), "requests rejected with 429 because the lane's admission queue was full"),
		}
	}
	return t
}

// laneGauges publishes one lane's queue shape.
func (t *serveTelemetry) laneGauges(class string, depth, running int) {
	t.lanes[class].depth.Set(float64(depth))
	t.lanes[class].running.Set(float64(running))
}

// bodyShape publishes the rendered bodies' share of the store, and the
// body evictions since the last publication.
func (t *serveTelemetry) bodyShape(st orchestrate.StoreStats) {
	t.mu.Lock()
	if d := st.BodyEvictions - t.bodyEvicted; d > 0 {
		t.bodyEvictions.Add(d)
		t.bodyEvicted = st.BodyEvictions
	}
	t.mu.Unlock()
	t.bodyEntries.Set(float64(st.Bodies))
	t.bodyBytes.Set(float64(st.BodyBytes))
}

// request counts one finished request by endpoint and status code.
func (t *serveTelemetry) request(endpoint string, code int) {
	t.reg.Counter(
		fmt.Sprintf("serve_requests_%s_%d_total", endpoint, code),
		"requests served on the "+endpoint+" endpoint by status code",
	).Inc()
}

// handler returns the latency histogram for one endpoint.
func (t *serveTelemetry) handler(endpoint string) *telemetry.Histogram {
	return t.reg.Phase("serve_handler_" + endpoint)
}
