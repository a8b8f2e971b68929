package oracle

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/power"
	"pcstall/internal/telemetry"
)

// TestFanOutTruthIdenticalAcrossWidths: the forks of one SampleNext may
// run on any number of helper goroutines, but the Truth must come out
// byte-identical — with and without per-wavefront truth, and on the
// interpolation path (fewer samples than states). GOMAXPROCS(1) forces
// the serial path; GOMAXPROCS(4) gives the fan-out three idle slots.
// Whether a claimed helper gets to a sample before the caller drains the
// cursor is up to the scheduler, so the fanned-out side resamples the
// same parent until helpers have run some forks, checking every Truth.
func TestFanOutTruthIdenticalAcrossWidths(t *testing.T) {
	pm := power.DefaultModelFor(4)
	for _, wf := range []bool{false, true} {
		for _, samples := range []int{0, 4} {
			t.Run(fmt.Sprintf("wf=%v/samples=%d", wf, samples), func(t *testing.T) {
				g := memGPU(t, 4)
				g.RunUntil(5 * clock.Microsecond)
				newSampler := func() *Sampler {
					s := sampler(&pm, wf)
					s.Samples = samples
					s.Metrics = NewTelemetry(telemetry.New())
					return s
				}

				prev := runtime.GOMAXPROCS(1)
				serial := newSampler()
				want := marshalTruth(t, serial.SampleNext(g, clock.Microsecond))
				runtime.GOMAXPROCS(4)
				wide := newSampler()
				for i := 0; i < 200 && wide.Metrics.Helpers.Value() == 0; i++ {
					if got := marshalTruth(t, wide.SampleNext(g, clock.Microsecond)); !bytes.Equal(got, want) {
						runtime.GOMAXPROCS(prev)
						t.Fatalf("call %d: Truth differs between serial and fanned-out sampling", i)
					}
				}
				runtime.GOMAXPROCS(prev)

				if n := serial.Metrics.Helpers.Value(); n != 0 {
					t.Fatalf("GOMAXPROCS(1): %d forks ran on helpers, want 0", n)
				}
				if wide.Metrics.Helpers.Value() == 0 {
					t.Fatal("GOMAXPROCS(4): no fork ever ran on a helper; the fan-out was not exercised")
				}
			})
		}
	}
}

// TestFanOutLeavesNoCoreClaimed: every helper gives its core back by the
// time SampleNext returns, and a standalone caller is counted only for
// the call.
func TestFanOutLeavesNoCoreClaimed(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	pm := power.DefaultModelFor(2)
	g := memGPU(t, 2)
	g.RunUntil(2 * clock.Microsecond)
	before := running.Load()
	s := sampler(&pm, false)
	for i := 0; i < 3; i++ {
		s.SampleNext(g, clock.Microsecond)
	}
	if got := running.Load(); got != before {
		t.Fatalf("running count %d after SampleNext, want %d", got, before)
	}
}

// TestClaimHelpersStaysWithinIdleCores: the claim never takes more cores
// than GOMAXPROCS leaves idle, and takes none when every core is busy.
func TestClaimHelpersStaysWithinIdleCores(t *testing.T) {
	Occupy()
	if n := claimHelpers(9, 4); n != 3 {
		t.Fatalf("one busy goroutine of 4 procs: claimed %d helpers, want 3", n)
	}
	if n := claimHelpers(9, 4); n != 0 {
		t.Fatalf("all cores busy: claimed %d helpers, want 0", n)
	}
	for i := 0; i < 3; i++ {
		Vacate()
	}
	if n := claimHelpers(1, 4); n != 1 {
		t.Fatalf("claim capped at want=1: got %d", n)
	}
	Vacate()
	Vacate()
}
