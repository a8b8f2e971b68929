// Command pcstall-serve runs the simulator as a long-lived HTTP
// service: simulations and paper figures on demand, backed by the same
// orchestrator, result cache, and telemetry the batch CLI uses.
//
// Usage:
//
//	pcstall-serve -addr 127.0.0.1:8080 -cache-dir /var/cache/pcstall
//
// Endpoints (see internal/serve):
//
//	POST /v1/sim              one simulation from a JSON config
//	POST /v1/figures/{id}     regenerate a paper figure
//	GET  /v1/jobs/{id}        poll a job; /events streams SSE progress
//	GET  /v1/workloads        registry listings
//	GET  /v1/designs
//	GET  /metrics             Prometheus text (expvar, pprof alongside)
//
// Identical concurrent requests are computed once (singleflight on the
// orchestrator's content-addressed job key), already-cached results are
// served without queueing, and when the bounded queue fills, requests
// are shed with 429 + Retry-After instead of piling up.
//
// The first SIGINT/SIGTERM starts a graceful drain: admissions stop
// (503), in-flight jobs finish (or are cancelled at -drain-timeout),
// the result cache and manifest are flushed, and the process exits 0.
// A second signal aborts immediately with exit 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pcstall/internal/clock"
	"pcstall/internal/exp"
	"pcstall/internal/serve"
	"pcstall/internal/telemetry"
	"pcstall/internal/tracing"
	"pcstall/internal/version"
)

func main() {
	cfg := exp.DefaultConfig()
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	cus := flag.Int("cus", cfg.CUs, "default number of compute units (requests may override)")
	scale := flag.Float64("scale", cfg.Scale, "default workload duration scale")
	seed := flag.Uint64("seed", cfg.Seed, "default random seed")
	apps := flag.String("apps", "", "comma-separated workload subset for figures (default: all)")
	traceEpochs := flag.Int("trace-epochs", cfg.TraceEpochs, "epochs sampled per characterization trace (figures)")
	maxMs := flag.Int64("max-ms", int64(cfg.MaxTime/clock.Millisecond), "default per-run simulated time cap (ms)")
	workers := flag.Int("j", runtime.NumCPU(), "parallel simulation workers")
	queue := flag.Int("queue", 64, "max admitted-but-unfinished cold-sim jobs before requests shed with 429")
	figQueue := flag.Int("figure-queue", 0, "max admitted-but-unfinished figure jobs on their own lane (0 = 16; negative shares the sim lane)")
	bodyCacheBytes := flag.Int64("body-cache-bytes", 0, "byte budget for the settled-result store: records plus rendered bodies (0 = 32 MiB; negative keeps only what the disk cache cannot serve back)")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent result cache (shared with pcstall-exp)")
	noCache := flag.Bool("no-cache", false, "ignore the disk cache: neither read nor write it")
	manifest := flag.String("manifest", "", "manifest path flushed on drain (default: <cache-dir>/manifest.json when -cache-dir is set)")
	jobTimeout := flag.Duration("timeout", 0, "default per-job timeout when a request carries none (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "cap on client-requested per-job timeouts (0 = uncapped)")
	retries := flag.Int("retries", 0, "retries per failed job (transient faults, doubling backoff)")
	maxCycles := flag.Int64("max-cycles", 0, "default per-run CU-cycle watchdog budget (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight jobs before cancelling them")
	traceOut := flag.String("trace-out", "", "write this process's distributed traces (flight recorder contents) to FILE on drain, in Chrome trace-event format")
	showVersion := flag.Bool("version", false, "print the simulator version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pcstall-serve: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	// The server's lifetime context: jobs derive from it; a hard abort
	// cancels it.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()

	// A server is always traced: the flight recorder is bounded, the
	// per-span cost is nanoseconds against millisecond jobs, and the
	// /debug/traces endpoint plus coordinator trace stitching are most
	// valuable exactly when nobody thought to turn them on beforehand.
	tracer := tracing.New("pcstall-serve", tracing.DefaultCapacity)
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))

	reg := telemetry.New()
	cfg.CUs = *cus
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.TraceEpochs = *traceEpochs
	cfg.MaxTime = clock.Time(*maxMs) * clock.Millisecond
	if *apps != "" {
		cfg.Apps = strings.Split(*apps, ",")
	}
	cfg.Workers = *workers
	cfg.NoCache = *noCache
	cfg.StoreBytes = *bodyCacheBytes
	cfg.Retries = *retries
	cfg.MaxCycles = *maxCycles
	cfg.Metrics = reg
	cfg.Log = logger
	cfg.Ctx = baseCtx
	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "pcstall-serve: cache dir: %v\n", err)
			os.Exit(1)
		}
		cfg.CacheDir = *cacheDir
	}

	suite := exp.NewSuite(cfg)
	defer suite.Close()

	srv, err := serve.New(serve.Config{
		Backend:        suite,
		Defaults:       suite.SimDefaults(),
		MaxQueue:       *queue,
		FigureQueue:    *figQueue,
		Workers:        *workers,
		FigureIDs:      suite.ArtifactIDs(),
		Metrics:        reg,
		BaseCtx:        baseCtx,
		DefaultTimeout: *jobTimeout,
		MaxTimeout:     *maxTimeout,
		Tracer:         tracer,
		Log:            logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcstall-serve: %v\n", err)
		os.Exit(1)
	}

	// The drain handler is installed before the server can announce
	// readiness: a SIGTERM sent the moment the address is printed must
	// drain, not kill the process with Go's default signal action.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcstall-serve: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Slow-loris guard: a client trickling header bytes (or holding
		// idle keep-alive sockets) must not pin connections forever. No
		// ReadTimeout/WriteTimeout — sync /v1/sim responses legitimately
		// take minutes; per-job budgets live in the orchestrator.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// The resolved address goes to stdout so scripts (and the CI smoke)
	// can discover a :0-assigned port.
	fmt.Printf("pcstall-serve: listening on http://%s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "pcstall-serve: %s, %d workers, queue %d, cache %q\n",
		version.String(), *workers, *queue, *cacheDir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "pcstall-serve: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "pcstall-serve: %v: draining (in-flight jobs finish, new work is rejected; a second signal aborts)\n", s)
	}
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "pcstall-serve: aborting")
		os.Exit(130)
	}()

	// Graceful drain: stop admitting, let in-flight jobs settle (cancel
	// any stragglers at -drain-timeout), close the listener, flush the
	// cache append handle and the manifest, exit 0.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "pcstall-serve: drain cancelled in-flight jobs: %v\n", err)
	}
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		_ = httpSrv.Close()
	}
	mpath := *manifest
	if mpath == "" && cfg.CacheDir != "" {
		mpath = filepath.Join(cfg.CacheDir, "manifest.json")
	}
	if mpath != "" {
		if err := suite.WriteManifest(mpath); err != nil {
			fmt.Fprintf(os.Stderr, "pcstall-serve: %v\n", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := tracer.Recorder().WriteChromeFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "pcstall-serve: %v\n", err)
			os.Exit(1)
		}
	}
	if err := suite.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "pcstall-serve: %v\n", err)
		os.Exit(1)
	}
	st := suite.Stats()
	fmt.Fprintf(os.Stderr, "pcstall-serve: drained (%s)\n", st)
}
