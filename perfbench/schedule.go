package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// The fixed scaled platform every workload runs on: small enough that a
// cold §6 campaign takes seconds on two cores, with apps spanning
// compute-bound (dgemm), memory-bound (xsbench, hpgmg) and
// phase-alternating (comd) behaviour.
const (
	platCUs   = 4
	platScale = 0.3
)

var (
	platApps = []string{"dgemm", "xsbench", "hpgmg", "comd"}
	// campaignFigures are the §6 evaluation figures the campaign
	// regenerates.
	campaignFigures = []string{"14", "15", "16", "17"}
	// coldNoFork is how many of every 14 non-fork cold requests per app
	// go to each practical design; coldFork are the fork-pre-execute
	// designs, one of which takes one new cold request in forkEvery.
	coldNoFork = []struct {
		design string
		n      int
	}{{"PCSTALL", 5}, {"STALL", 5}, {"CRISP", 4}}
	coldFork    = []string{"ORACLE", "ACCPC"}
	forkDesigns = []string{"ORACLE", "ACCPC", "ACCREAC"}
	// hotDesigns make up the serve-hot key pool: both predictor styles
	// and both fork designs, so the pool's results exercise every layer
	// during set-up.
	hotDesigns = []string{"PCSTALL", "CRISP", "ORACLE", "ACCPC"}
)

// Workload shape. Rates are offered loads (requests per second) of the
// open-loop schedules.
const (
	coldRate   = 72.0
	forkEvery  = 8  // each block of forkEvery new cold requests has one fork
	retryEvery = 16 // one cold request in retryEvery repeats a recent key
	retryBack  = 3  // a retry repeats one of the last retryBack new keys
	hotRate    = 3000.0
	hotZipfS   = 1.1 // popularity skew over the hot pool
	hotSeeds   = 2   // simulation seeds per (app, design) in the hot pool
	// coldSeedBase keeps cold simulation seeds clear of the seeds the
	// hot pool and the canary set use.
	coldSeedBase = 16
)

// simReq is the sparse POST /v1/sim body the benchmark sends; the server
// fills every other field from its platform defaults.
type simReq struct {
	App    string `json:"app"`
	Design string `json:"design"`
	Seed   uint64 `json:"seed"`
}

func (q simReq) body() []byte {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // three scalar fields always marshal
	}
	return b
}

func (q simReq) fork() bool {
	for _, d := range forkDesigns {
		if q.Design == d {
			return true
		}
	}
	return false
}

// arrival is one scheduled request of an open-loop schedule.
type arrival struct {
	Due time.Duration // offset from the schedule's start
	Req simReq
	// Retry marks a cold request that repeats the key of a request sent
	// moments earlier, the way a client retry does.
	Retry bool
	// Replay marks a hot request that carries the key's ETag in
	// If-None-Match.
	Replay bool
}

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
}

// poissonDue returns seeded Poisson arrival offsets at rate per second
// that fall inside window.
func poissonDue(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// deck deals cards from seeded shuffles of a fixed set, reshuffling
// once the set is used up, so that any stretch of deals carries the set's
// proportions.
type deck struct {
	set, left []simReq
}

func (d *deck) deal(rng *rand.Rand) simReq {
	if len(d.left) == 0 {
		d.left = append(d.left[:0], d.set...)
		rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	q := d.left[0]
	d.left = d.left[1:]
	return q
}

// coldDecks are the app × design sets new cold requests are dealt from.
func coldDecks() (noFork, fork []simReq) {
	for _, app := range platApps {
		for _, m := range coldNoFork {
			for i := 0; i < m.n; i++ {
				noFork = append(noFork, simReq{App: app, Design: m.design})
			}
		}
		for _, d := range coldFork {
			fork = append(fork, simReq{App: app, Design: d})
		}
	}
	return noFork, fork
}

// coldSchedule is the serve-cold request sequence: every new request has
// a fresh key (a simulation seed no other request of the run uses), and
// one in retryEvery repeats one of the last few new keys. New requests
// come in blocks of forkEvery with the fork design at a seeded position,
// and apps and designs are dealt from seeded decks, so every run carries
// the same mix and seeds differ only in order and timing.
func coldSchedule(seed uint64, window time.Duration) []arrival {
	rng := newRand(seed)
	due := poissonDue(rng, coldRate, window)
	out := make([]arrival, len(due))
	noForkSet, forkSet := coldDecks()
	noFork, fork := &deck{set: noForkSet}, &deck{set: forkSet}
	var recent []simReq
	fresh := uint64(0)
	forkAt := 0
	for i, d := range due {
		a := arrival{Due: d}
		if len(recent) > 0 && rng.IntN(retryEvery) == 0 {
			a.Req, a.Retry = recent[rng.IntN(len(recent))], true
		} else {
			slot := int(fresh % forkEvery)
			if slot == 0 {
				forkAt = rng.IntN(forkEvery)
			}
			if slot == forkAt {
				a.Req = fork.deal(rng)
			} else {
				a.Req = noFork.deal(rng)
			}
			a.Req.Seed = seed<<24 + coldSeedBase + fresh
			fresh++
			recent = append(recent, a.Req)
			if len(recent) > retryBack {
				recent = recent[1:]
			}
		}
		out[i] = a
	}
	return out
}

// hotPool is the fixed serve-hot key set, warmed during set-up. It does
// not depend on the workload seed, so its results digest is a constant
// of the simulator version.
func hotPool() []simReq {
	var pool []simReq
	for _, app := range platApps {
		for _, d := range hotDesigns {
			for s := uint64(1); s <= hotSeeds; s++ {
				pool = append(pool, simReq{App: app, Design: d, Seed: s})
			}
		}
	}
	return pool
}

// canarySet is the fixed cold key set whose results digest gates
// serve-cold against the recorded value.
func canarySet() []simReq {
	var out []simReq
	for _, app := range platApps {
		for _, d := range []string{"PCSTALL", "ORACLE"} {
			out = append(out, simReq{App: app, Design: d, Seed: 1})
		}
	}
	return out
}

// hotSchedule is the serve-hot request sequence: Zipf-skewed picks from
// the pool (the seed permutes which key is most popular), half of them
// replaying the key's ETag.
func hotSchedule(seed uint64, window time.Duration) []arrival {
	rng := newRand(seed)
	pool := hotPool()
	rank := rng.Perm(len(pool))
	cdf := make([]float64, len(pool))
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), hotZipfS)
		cdf[r] = sum
	}
	due := poissonDue(rng, hotRate, window)
	out := make([]arrival, len(due))
	for i, d := range due {
		u := rng.Float64() * sum
		r := 0
		for r < len(cdf)-1 && cdf[r] < u {
			r++
		}
		out[i] = arrival{Due: d, Req: pool[rank[r]], Replay: rng.IntN(2) == 0}
	}
	return out
}

// sortReqs orders requests by app, design and seed, so that seeded picks
// from a map's keys are reproducible.
func sortReqs(qs []simReq) {
	sort.Slice(qs, func(i, j int) bool {
		a, b := qs[i], qs[j]
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Design != b.Design {
			return a.Design < b.Design
		}
		return a.Seed < b.Seed
	})
}
