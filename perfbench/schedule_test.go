package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestSchedulesAreSeeded(t *testing.T) {
	for name, gen := range map[string]func(uint64, time.Duration) []arrival{
		"cold": coldSchedule,
		"hot":  hotSchedule,
	} {
		a, b := gen(7, 5*time.Second), gen(7, 5*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different schedules", name)
		}
		if reflect.DeepEqual(a, gen(8, 5*time.Second)) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	const rate, window = 200.0, 50 * time.Second
	due := poissonDue(newRand(3), rate, window)
	want := rate * window.Seconds()
	if got := float64(len(due)); math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Errorf("%v arrivals in %v at %v/s, want about %v", got, window, rate, want)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] || due[i] >= window {
			t.Fatalf("arrival %d at %v is out of order or outside the window", i, due[i])
		}
	}
}

func TestColdSequence(t *testing.T) {
	sched := coldSchedule(5, 60*time.Second)
	seen := map[simReq]int{}
	var forks, fresh, retries int
	for i, a := range sched {
		if a.Retry {
			retries++
			j, ok := seen[a.Req]
			if !ok {
				t.Fatalf("request %d retries a key never sent", i)
			}
			// A retry repeats one of the last few new keys.
			newer := 0
			for _, b := range sched[j+1 : i] {
				if !b.Retry {
					newer++
				}
			}
			if newer >= retryBack {
				t.Errorf("request %d retries a key %d new keys old", i, newer)
			}
			continue
		}
		if _, dup := seen[a.Req]; dup {
			t.Fatalf("request %d reuses a key without being a retry", i)
		}
		if a.Req.Seed < coldSeedBase {
			t.Fatalf("request %d uses a seed reserved for the hot pool and canary set", i)
		}
		seen[a.Req] = i
		fresh++
		if a.Req.fork() {
			forks++
		}
	}
	// Every block of forkEvery new requests carries exactly one fork.
	if want := (fresh + forkEvery - 1) / forkEvery; forks < want-1 || forks > want {
		t.Errorf("%d fork requests of %d new ones, want %d", forks, fresh, want)
	}
	if share := float64(retries) / float64(len(sched)); math.Abs(share-1.0/retryEvery) > 0.02 {
		t.Errorf("retry share %.3f, want about 1/%d", share, retryEvery)
	}
}

func TestHotSequence(t *testing.T) {
	pool := map[simReq]bool{}
	for _, q := range hotPool() {
		pool[q] = true
	}
	sched := hotSchedule(9, 10*time.Second)
	counts := map[simReq]int{}
	replays := 0
	for i, a := range sched {
		if !pool[a.Req] {
			t.Fatalf("request %d is outside the warmed pool", i)
		}
		counts[a.Req]++
		if a.Replay {
			replays++
		}
	}
	if share := float64(replays) / float64(len(sched)); math.Abs(share-0.5) > 0.03 {
		t.Errorf("replay share %.3f, want about one half", share)
	}
	top := 0
	for _, n := range counts {
		top = max(top, n)
	}
	// Zipf(1.1) over 32 keys puts about a quarter of requests on the
	// most popular key; uniform picks would put 1/32 there.
	if share := float64(top) / float64(len(sched)); share < 0.15 {
		t.Errorf("most popular key takes %.3f of requests; popularity is not skewed", share)
	}
}

func TestFixedSetsIgnoreTheSeed(t *testing.T) {
	// The recorded digests cover the hot pool and the canary set, so
	// neither may depend on the workload seed or overlap cold keys.
	for _, q := range append(hotPool(), canarySet()...) {
		if q.Seed >= coldSeedBase {
			t.Fatalf("%v collides with the cold seed range", q)
		}
	}
	if !reflect.DeepEqual(hotPool(), hotPool()) {
		t.Fatal("hot pool is not fixed")
	}
}
