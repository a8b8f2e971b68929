package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pcstall/internal/wire"
)

// maxLateP99 bounds how far behind its own schedule the generator may
// run (p99 of dispatch time minus due time). A run past it measured the
// machine's scheduler, not the program, and is reported invalid. The
// traced run hosts the server in the generator's process, where a
// CPU-bound simulation can hold a processor for the Go scheduler's
// 10 ms preemption quantum before the dispatcher runs, so its bound
// allows for that.
const (
	maxLateP99       = 20 * time.Millisecond
	maxLateP99Hosted = 50 * time.Millisecond
)

// outcome is one request's timeline and verdict. Times are offsets from
// the schedule's start.
type outcome struct {
	Due  time.Duration
	Enq  time.Duration // when the dispatcher released it
	Sent time.Duration // when a connection picked it up
	Done time.Duration // when the response body was fully read
	Key  string        // the job key, from the response's ETag
	Body []byte        // kept only for 200s when the generator keeps bodies
	Err  string        // why the request failed; "" when it succeeded
}

func (o *outcome) latency() time.Duration { return o.Done - o.Due }

// loadgen is the benchmark's own open-loop HTTP generator. It uses at
// most conns connections, each sending one request at a time.
type loadgen struct {
	base   string
	conns  int
	client *http.Client
	// etags maps a request to the ETag its warm-up response carried, for
	// requests that replay it.
	etags map[simReq]string
	// expect, when set, holds the exact body every 200 for a request
	// must carry (serve-hot replays warmed keys).
	expect map[simReq][]byte
	// keepBodies keeps each 200 body on its outcome.
	keepBodies bool
	newConns   atomic.Int64 // connections dialled
}

func newLoadgen(base string, conns int) *loadgen {
	g := &loadgen{base: base, conns: conns, etags: map[simReq]string{}}
	var d net.Dialer
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			g.newConns.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	g.client = &http.Client{Transport: tr, Timeout: time.Minute}
	return g
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// do sends one request and verifies its transport-level contract: a 200
// carries an X-Pcstall-Digest matching its bytes and an ETag; a 304 only
// answers a replayed ETag.
func (g *loadgen) do(ctx context.Context, a arrival, o *outcome) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/v1/sim", bytes.NewReader(a.Req.body()))
	if err != nil {
		o.Err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if a.Replay {
		req.Header.Set("If-None-Match", g.etags[a.Req])
	}
	resp, err := g.client.Do(req)
	if err != nil {
		o.Err = "transport: " + err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if len(etag) > 2 {
		o.Key = etag[1 : len(etag)-1]
	}
	switch {
	case err != nil:
		o.Err = "reading body: " + err.Error()
	case resp.StatusCode == http.StatusNotModified:
		if !a.Replay {
			o.Err = "304 for a request without If-None-Match"
		}
	case resp.StatusCode != http.StatusOK:
		o.Err = fmt.Sprintf("status %d: %.200s", resp.StatusCode, body)
	default:
		if want, ok := wire.Check(resp.Header.Get(wire.DigestHeader), body); !ok || resp.Header.Get(wire.DigestHeader) == "" {
			o.Err = "digest mismatch: body hashes to " + want
		} else if warm, ok := g.expect[a.Req]; g.expect != nil && (!ok || !bytes.Equal(warm, body)) {
			o.Err = "body differs from the warm-up response for the same key"
		} else if g.keepBodies {
			o.Body = body
		}
	}
}

// run sends the schedule open-loop and returns one outcome per arrival.
// Each request is timed from when it was due, so a stall counts against
// every request queued behind it.
func (g *loadgen) run(ctx context.Context, sched []arrival) (start time.Time, outs []outcome) {
	outs = make([]outcome, len(sched))
	// Sized to the schedule so the dispatcher never blocks on a send.
	ready := make(chan int, len(sched))
	var wg sync.WaitGroup
	start = time.Now()
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				o := &outs[i]
				o.Sent = time.Since(start)
				g.do(ctx, sched[i], o)
				o.Done = time.Since(start)
			}
		}()
	}
	for i, a := range sched {
		if d := time.Until(start.Add(a.Due)); d > 0 {
			time.Sleep(d)
		}
		outs[i].Due = a.Due
		outs[i].Enq = time.Since(start)
		ready <- i
	}
	close(ready)
	wg.Wait()
	return start, outs
}

// genStats summarises the generator's own behaviour over a run.
type genStats struct {
	Conns   int64
	LateP99 time.Duration
}

func (g *loadgen) stats(outs []outcome) genStats {
	late := make([]float64, len(outs))
	for i := range outs {
		late[i] = float64(outs[i].Enq - outs[i].Due)
	}
	st := genStats{Conns: g.newConns.Load()}
	if p, err := percentile(late, 99); err == nil {
		st.LateP99 = time.Duration(p)
	} else {
		// Too few requests for a p99: bound the worst case instead.
		for _, l := range late {
			st.LateP99 = max(st.LateP99, time.Duration(l))
		}
	}
	return st
}

// valid reports whether the generator kept to its schedule and its
// connection bound.
func (st genStats) valid(conns int, bound time.Duration) error {
	if st.LateP99 > bound {
		return fmt.Errorf("generator fell behind its schedule: late p99 %v > %v; the run measured the scheduler, not the program", st.LateP99, bound)
	}
	if st.Conns > int64(conns) {
		return fmt.Errorf("generator opened %d connections, bound is %d", st.Conns, conns)
	}
	return nil
}
