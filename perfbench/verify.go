package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"

	"pcstall/internal/dvfs"
	"pcstall/internal/exp"
	"pcstall/internal/orchestrate"
)

// expectedJSON records, per simulator version, the sim_digest each
// workload must print. A simulator-speed change keeps SimVersion and so
// must reproduce these exactly; a change that alters simulated results
// must bump SimVersion, which leaves the digest unverified until the new
// value is recorded.
//
//go:embed expected.json
var expectedJSON []byte

// expectedDigest returns the recorded digest for a workload under the
// current SimVersion.
func expectedDigest(workload string) (string, bool, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return "", false, fmt.Errorf("expected.json: %w", err)
	}
	d, ok := all[orchestrate.SimVersion][workload]
	return d, ok, nil
}

// digestCheck compares a computed digest with the recorded one: ok is
// false only on a recorded mismatch; verified is false when nothing is
// recorded for this SimVersion.
func digestCheck(workload, got string) (ok, verified bool, err error) {
	want, found, err := expectedDigest(workload)
	if err != nil || !found {
		return true, false, err
	}
	return got == want, true, nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(h[:])
}

// simResponse is the part of a POST /v1/sim body the benchmark checks.
type simResponse struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Job    orchestrate.Job `json:"job"`
	Result *dvfs.Result    `json:"result"`
}

func decodeSim(body []byte) (simResponse, error) {
	var r simResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("decoding sim response: %w", err)
	}
	return r, nil
}

// answers checks that a decoded response is a finished simulation of
// exactly the requested job.
func (r simResponse) answers(q simReq) error {
	switch {
	case r.Status != "done":
		return fmt.Errorf("status %q", r.Status)
	case r.Job.App != q.App || r.Job.Design != q.Design || r.Job.Seed != q.Seed:
		return fmt.Errorf("answered %s/%s/seed %d for %s/%s/seed %d", r.Job.App, r.Job.Design, r.Job.Seed, q.App, q.Design, q.Seed)
	case r.ID != r.Job.Key():
		return fmt.Errorf("id %s is not the key of the job it reports", r.ID)
	case r.Result == nil || r.Result.Epochs == 0:
		return fmt.Errorf("empty result")
	}
	return nil
}

// canonicalResult renders a result's simulated content: the fields as
// the simulator produced them, independent of how the server formats its
// body or which build stamped it.
func canonicalResult(r *dvfs.Result) []byte {
	c := *r
	c.Records = nil
	b, err := json.Marshal(c)
	if err != nil {
		panic(err) // dvfs.Result is plain data
	}
	return b
}

// resultsDigest hashes canonical results in job-key order.
func resultsDigest(byKey map[string]*dvfs.Result) string {
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k + "\n"))
		h.Write(canonicalResult(byKey[k]))
		h.Write([]byte("\n"))
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// suiteConfig is the exp.Config pcstall-serve and pcstall-exp build for
// themselves from platformFlags.
func suiteConfig() exp.Config {
	cfg := exp.DefaultConfig()
	cfg.CUs = platCUs
	cfg.Scale = platScale
	cfg.Apps = append([]string(nil), platApps...)
	cfg.Workers = runtime.NumCPU()
	return cfg
}

// crossCheck recomputes served results in-process and requires that the
// server answered each with exactly the job a suite on the same platform
// builds, and exactly the result it computes.
func crossCheck(ctx context.Context, served map[simReq]simResponse) error {
	cfg := suiteConfig()
	cfg.NoCache = true
	s := exp.NewSuite(cfg)
	defer s.Close()
	for q, resp := range served {
		j := s.SimDefaults()
		j.App, j.Design, j.Seed = q.App, q.Design, q.Seed
		if resp.Job != j {
			return fmt.Errorf("cross-check %v: server ran job %+v, in-process suite builds %+v", q, resp.Job, j)
		}
		res, err := s.RunSim(ctx, j)
		if err != nil {
			return fmt.Errorf("cross-check %v: %w", q, err)
		}
		if string(canonicalResult(res)) != string(canonicalResult(resp.Result)) {
			return fmt.Errorf("cross-check %v: served result differs from the in-process result", q)
		}
	}
	return nil
}
