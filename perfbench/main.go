// Command perfbench is the repository's benchmark. It runs one named
// workload against the shipped programs (pcstall-exp, pcstall-serve),
// checks their outputs, and prints every end-to-end metric by name with
// its unit; with -trace 1 it instead hosts the same programs' layers
// in-process, times calls at each layer boundary, and prints the
// per-layer metrics. RATIONALE.md explains the workloads and metrics.
//
// Usage (from the root of a checkout; run.sh builds everything first):
//
//	perfbench -bin DIR -work DIR --workload campaign|serve-cold|serve-hot \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pcstall/internal/orchestrate"
)

// opts are one run's parameters.
type opts struct {
	workload string
	seed     uint64
	window   time.Duration // how long the run measures
	trace    bool
	bin      string // directory holding the built shipped binaries
	work     string // scratch directory for this run
	results  string // where run records and traces are kept
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits and layerUnits declare every metric the two modes print; a
// run that misses one fails rather than printing a partial result.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"wall_s":         "s",
	"cpu_s":          "s",
	"p50_ms":         "ms",
	"p95_ms":         "ms",
	"p99_ms":         "ms",
	"cpu_us_per_req": "us",
	"peak_rss_mb":    "MiB",
}

var layerUnits = map[string]string{
	"serve.self_us":               "us",
	"serve.admit_wait_ms":         "ms",
	"serve.body_hit_share":        "ratio",
	"serve.not_modified_share":    "ratio",
	"serve.singleflight_joins":    "count",
	"serve.heap_kb_per_result":    "KiB",
	"orchestrate.wait_ms":         "ms",
	"orchestrate.memo_hit_share":  "ratio",
	"orchestrate.busy_share":      "ratio",
	"orchestrate.straggler_share": "ratio",
	"dvfs.job_ms.fork":            "ms",
	"dvfs.job_ms.nofork":          "ms",
	"dvfs.other_share":            "ratio",
	"oracle.sample_us":            "us",
	"oracle.share":                "ratio",
	"oracle.forks":                "count",
	"sim.advance_us_per_sim_us":   "us/us",
	"sim.collect_us":              "us",
	"sim.instr":                   "count",
	"mem.l1_hit_share":            "ratio",
	"mem.l2_hit_share":            "ratio",
	"predict.decide_us":           "us",
	"predict.pc_hit_share":        "ratio",
	"trace.overhead_share":        "ratio",
	"gen.late_p99_ms":             "ms",
}

// outcomeOf is what one workload run hands back to main.
type outcomeOf struct {
	attempted, failed int
	values            map[string]float64
	// digest is the workload's sim_digest; digestOK is false when it
	// contradicts the value recorded for this SimVersion.
	digest             string
	digestOK, verified bool
	notes              map[string]any
}

func main() {
	var o opts
	var seconds int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: campaign, serve-cold or serve-hot")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (the programs only see the inputs it generates)")
	flag.IntVar(&seconds, "seconds", 25, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced in-process variant and prints per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding pcstall-exp and pcstall-serve")
	flag.StringVar(&o.work, "work", ".bench_build/runs", "scratch directory for run state")
	flag.Parse()
	o.window = time.Duration(seconds) * time.Second
	o.results = filepath.Join(filepath.Dir(o.work), "results")
	o.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fail(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	rep, prov, err := run(o)
	if err != nil {
		fail(err)
	}
	if line, err := json.Marshal(prov); err == nil {
		fmt.Printf("provenance %s\n", line)
	}
	if err := writeRecord(o, prov, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(o opts) (report, map[string]any, error) {
	dir, err := os.MkdirTemp(mustMkdir(o.work), o.workload+"-")
	if err != nil {
		return report{}, nil, err
	}
	defer os.RemoveAll(dir)
	o.work = dir
	ctx := context.Background()
	var out outcomeOf
	switch {
	case o.workload == "campaign" && !o.trace:
		out, err = runCampaign(ctx, o)
	case o.workload == "campaign":
		out, err = tracedCampaign(ctx, o)
	case (o.workload == "serve-cold" || o.workload == "serve-hot") && !o.trace:
		out, err = runServe(ctx, o)
	case o.workload == "serve-cold" || o.workload == "serve-hot":
		out, err = tracedServe(ctx, o)
	default:
		err = fmt.Errorf("unknown workload %q (campaign, serve-cold, serve-hot)", o.workload)
	}
	if err != nil {
		return report{}, nil, err
	}
	units := e2eUnits
	if o.trace {
		units = layerUnits
	}
	rep := report{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for name, unit := range units {
		v, ok := out.values[name]
		if !ok {
			return report{}, nil, fmt.Errorf("workload %s produced no value for %s", o.workload, name)
		}
		rep.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if !out.digestOK {
		// The simulator produced something other than what this
		// SimVersion is recorded to produce: no operation of the run
		// counts as correct.
		rep.Failed = rep.Attempted
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	prov := provenance(o)
	prov["sim_digest"] = out.digest
	prov["sim_digest_verified"] = out.verified
	for k, v := range out.notes {
		prov[k] = v
	}
	return rep, prov, nil
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	return dir
}

// provenance records what produced a number, so that no recorded figure
// can go stale silently.
func provenance(o opts) map[string]any {
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.window.Seconds(),
		"trace":         o.trace,
		"machine":       cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        gitCommit(),
		"source_sha256": sourceDigest("."),
		"sim_version":   orchestrate.SimVersion,
		"platform": fmt.Sprintf("cus=%d scale=%g apps=%s j=%d",
			platCUs, platScale, strings.Join(platApps, ","), runtime.NumCPU()),
		"time": time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's commit, or "" when it is not itself a git
// work tree (source_sha256 identifies the sources either way). git is
// kept from searching directories above the checkout.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return ""
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's Go sources and module file under
// root, skipping hidden directories and the benchmark itself.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just stays out of the digest
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	var all []byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		all = append(all, f...)
		all = append(all, 0)
		all = append(all, sha(b)...)
		all = append(all, '\n')
	}
	return sha(all)
}

// writeRecord keeps the run's provenance and report beside the build.
func writeRecord(o opts, prov map[string]any, rep report) error {
	dir := mustMkdir(o.results)
	b, err := json.MarshalIndent(map[string]any{"provenance": prov, "report": rep}, "", "  ")
	if err != nil {
		return err
	}
	mode := map[bool]string{false: "e2e", true: "trace"}[o.trace]
	name := fmt.Sprintf("%s-seed%d-%s-%s.json", o.workload, o.seed, mode, time.Now().UTC().Format("20060102T150405"))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
