package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pcstall/internal/orchestrate"
)

// Campaign run shape.
const (
	// campaignSetupsPerPass is how many launch-to-ready set-ups one run
	// times after each campaign pass (and once before the first), so
	// that the set-up median covers the machine over the whole run.
	campaignSetupsPerPass = 3
	// campaignMinJobs is the fewest job timings a run pools: enough
	// for p99 with minBeyond samples beyond it.
	campaignMinJobs = 100 * minBeyond
)

// campaignPass is one cold regeneration of the campaign figures.
type campaignPass struct {
	wall, cpu time.Duration
	rssMB     float64
	jobMS     []float64 // per-job host time from the run manifest
	stdout    []byte
	err       error
}

// campaignArgs are pcstall-exp's arguments for a cold campaign into an
// empty cache directory.
func campaignArgs(cacheDir string, figures ...string) []string {
	return append(append(platformFlags(), "-cache-dir", cacheDir), figures...)
}

// runPass runs pcstall-exp once and collects its wall clock, CPU, peak
// RSS and manifest job timings.
func runPass(bin, dir string) campaignPass {
	var p campaignPass
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, "pcstall-exp"), campaignArgs(dir, campaignFigures...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	p.wall = time.Since(t0)
	p.stdout = stdout.Bytes()
	if err != nil {
		p.err = fmt.Errorf("pcstall-exp: %w: %s", err, strings.TrimSpace(stderr.String()))
		return p
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		p.err = fmt.Errorf("reading manifest: %w", err)
		return p
	}
	var m orchestrate.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		p.err = fmt.Errorf("decoding manifest: %w", err)
		return p
	}
	for _, e := range m.Jobs {
		if e.Error != "" || e.Source != "run" {
			p.err = fmt.Errorf("job %s settled %q with error %q", e.Key, e.Source, e.Error)
			return p
		}
		p.jobMS = append(p.jobMS, e.DurationMS)
	}
	return p
}

// campaignSetup times pcstall-exp from launch until it is ready to run
// its first job: flag parsing, suite and orchestrator construction and
// the cache directory, measured by a launch that names no figure (the
// binary lists the artifacts and exits right after building its suite).
func campaignSetup(bin, dir string) (time.Duration, error) {
	cmd := exec.Command(filepath.Join(bin, "pcstall-exp"), campaignArgs(dir)...)
	t0 := time.Now()
	out, err := cmd.CombinedOutput()
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("pcstall-exp set-up launch: %w: %s", err, out)
	}
	return d, nil
}

// runCampaign is the untraced campaign workload: repeated cold
// regenerations of Figures 14-17, each a closed loop over the fixed job
// list at -j nproc into an empty cache directory.
func runCampaign(_ context.Context, o opts) (outcomeOf, error) {
	var setups []float64
	timeSetups := func() error {
		for k := 0; k < campaignSetupsPerPass; k++ {
			d, err := campaignSetup(o.bin, filepath.Join(o.work, fmt.Sprintf("setup%d", len(setups))))
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if err := timeSetups(); err != nil {
		return outcomeOf{}, err
	}
	var walls, cpus, rss, jobs []float64
	out := outcomeOf{digestOK: true}
	start := time.Now()
	for i := 0; time.Since(start) < o.window || len(jobs) < campaignMinJobs; i++ {
		p := runPass(o.bin, filepath.Join(o.work, fmt.Sprintf("pass%d", i)))
		if p.err != nil {
			return outcomeOf{}, p.err
		}
		digest := sha(p.stdout)
		ok, verified, err := digestCheck(o.workload, digest)
		if err != nil {
			return outcomeOf{}, err
		}
		if out.digest != "" && digest != out.digest {
			ok = false // two cold passes of one fixed campaign must agree
		}
		out.digest, out.verified = digest, verified
		out.attempted += len(p.jobMS)
		if !ok {
			out.failed += len(p.jobMS)
			fmt.Fprintf(os.Stderr, "perfbench: campaign pass %d printed figures with digest %s\n", i, digest)
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rss = append(rss, p.rssMB)
		jobs = append(jobs, p.jobMS...)
		if err := os.RemoveAll(filepath.Join(o.work, fmt.Sprintf("pass%d", i))); err != nil {
			return outcomeOf{}, err
		}
		if err := timeSetups(); err != nil {
			return outcomeOf{}, err
		}
	}
	jobsPerPass := float64(len(jobs)) / float64(len(walls))
	out.values = map[string]float64{
		"setup_s":        median(setups),
		"wall_s":         median(walls),
		"cpu_s":          median(cpus),
		"cpu_us_per_req": median(cpus) / jobsPerPass * 1e6,
		"peak_rss_mb":    median(rss),
	}
	for _, p := range []float64{50, 95, 99} {
		v, err := percentile(jobs, p)
		if err != nil {
			return outcomeOf{}, fmt.Errorf("campaign job times: %w", err)
		}
		out.values[fmt.Sprintf("p%g_ms", p)] = v
	}
	out.notes = map[string]any{"passes": len(walls), "jobs_per_pass": jobsPerPass, "job_samples": len(jobs)}
	return out, nil
}
