package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"positdebug/internal/faultinject"
)

func TestTailRuleLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{1000, 99, true},
		{999, 99, false},
		{200, 95, true},
		{199, 95, false},
		{100, 90, true},
		{99, 90, false},
	} {
		if got := tailOK(tc.n, tc.p); got != tc.ok {
			t.Errorf("tailOK(%d, p%g) = %v, want %v", tc.n, tc.p, got, tc.ok)
		}
	}
	for _, p := range []float64{kernelTailPct, serveTailPct, campaignTailPct} {
		n := samplesFor(p)
		if !tailOK(n, p) || tailOK(n-1, p) {
			t.Errorf("samplesFor(p%g) = %d is not the smallest count with %d beyond", p, n, minTailBeyond)
		}
	}
	// Every workload enforces the count its tail percentile needs.
	if minKernelRuns != samplesFor(kernelTailPct) || minShards != samplesFor(campaignTailPct) {
		t.Errorf("minimum sample counts %d/%d do not match the tail percentiles", minKernelRuns, minShards)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5}, 50); got != 3 {
		t.Errorf("median of 1..5 = %g", got)
	}
}

func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	const rate, n, stalled = 200.0, 20, 5
	const stall = 200 * time.Millisecond
	samples := openLoop(rate, n, 1, func(i int) bool {
		if i == stalled {
			time.Sleep(stall)
		}
		return true
	})
	period := time.Duration(float64(time.Second) / rate)
	for i, s := range samples {
		if got := s.Due.Sub(samples[0].Due); got != time.Duration(i)*period {
			t.Fatalf("request %d due %v after the first, want %v", i, got, time.Duration(i)*period)
		}
		if s.latency() < s.lag() {
			t.Errorf("request %d: latency %v shorter than its send lag %v", i, s.latency(), s.lag())
		}
	}
	// The request behind the stall waited for it: the wait shows in its
	// latency and in the generator's lag, though its own service was fast.
	next := samples[stalled+1]
	if next.lag() < stall/2 || next.latency() < stall/2 {
		t.Errorf("request after the stall: lag %v latency %v, want both ≥ %v", next.lag(), next.latency(), stall/2)
	}
	if next.Done.Sub(next.Sent) > stall/2 {
		t.Errorf("request after the stall took %v to serve; the test needs it fast", next.Done.Sub(next.Sent))
	}
	if samples[0].lag() > stall/2 {
		t.Errorf("first request lag %v, want small", samples[0].lag())
	}
}

func TestSeedFixesRequestMixAndKernelRotation(t *testing.T) {
	draw := func(seed int64) []byte {
		mix := newMix(seed)
		next := kernelRotation(seed)
		var items []mixItem
		var rounds [][]int
		for i := 0; i < 300; i++ {
			items = append(items, mix())
		}
		for i := 0; i < 50; i++ {
			rounds = append(rounds, next())
		}
		b, err := json.Marshal(struct {
			Items  []mixItem
			Rounds [][]int
		}{items, rounds})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := draw(7), draw(7), draw(8)
	if string(a) != string(b) {
		t.Error("the same seed drew different request mixes or kernel rotations")
	}
	if string(a) == string(c) {
		t.Error("different seeds drew the same request mix and kernel rotation")
	}

	mix := newMix(7)
	kinds := map[string]int{}
	suite := suitePrograms()
	for i := 0; i < 1000; i++ {
		m := mix()
		kinds[m.Kind]++
		if m.Kind == kindMiss {
			if m.Source == suite[m.Prog].Source {
				t.Fatalf("miss %d is the unmodified %s source", i, suite[m.Prog].Name)
			}
		} else if m.Source != suite[m.Prog].Source {
			t.Fatalf("%s request %d does not carry the %s source", m.Kind, i, suite[m.Prog].Name)
		}
	}
	// Equal shares: each kind within a few standard deviations of 1000/3.
	for _, k := range []string{kindHit, kindMiss, kindBaseline} {
		if kinds[k] < 280 || kinds[k] > 390 {
			t.Errorf("%d %s requests in 1000 draws, want about a third", kinds[k], k)
		}
	}
	rot := kernelRotation(3)()
	sorted := slices.Clone(rot)
	slices.Sort(sorted)
	if !slices.Equal(sorted, []int{0, 1, 2, 3}) {
		t.Errorf("a rotation round %v is not a permutation of the kernels", rot)
	}
}

func TestShadowRunsPerSecIsGeomeanOfPerKernelRates(t *testing.T) {
	fast := make([]time.Duration, 10) // 100 runs/s
	slow := make([]time.Duration, 10) // 1 run/s
	for i := range fast {
		fast[i] = 10 * time.Millisecond
		slow[i] = time.Second
	}
	got := shadowRunsPerSec([][]time.Duration{fast, slow})
	// geomean(100, 1) = 10; a pooled rate would be 20 runs / 10.1 s ≈ 1.98.
	if got < 9.999 || got > 10.001 {
		t.Errorf("shadowRunsPerSec = %g, want 10 (geomean of per-kernel rates)", got)
	}
	// Unequal run counts per kernel must not weight the mean.
	got = shadowRunsPerSec([][]time.Duration{fast[:2], slow})
	if got < 9.999 || got > 10.001 {
		t.Errorf("with unequal run counts shadowRunsPerSec = %g, want 10", got)
	}
}

func TestPerturbChangesOneLiteral(t *testing.T) {
	src := "func main(): p32 { var a: p32 = 1.5; return a * 2.25; }"
	got := perturb(src, rand.New(rand.NewSource(11)))
	if got == src || len(got) != len(src)+6 {
		t.Fatalf("perturb(%q) = %q, want six digits added to one literal", src, got)
	}
	if !strings.Contains(got, "1.5") || !strings.Contains(got, "2.25") {
		t.Errorf("perturb(%q) = %q lost a literal's leading digits", src, got)
	}
}

// TestShardTimerCountsDistinctShards: a shard the coordinator re-sends (a
// retry or a hedge) is one shard with two attempts, and the shards of a
// campaign come back in run order as they were sent.
func TestShardTimerCountsDistinctShards(t *testing.T) {
	st := &shardTimer{base: roundTripFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader("{}"))}, nil
	})}
	st.reset()
	cfg := campaignConfig(5).Wire()
	for _, lo := range []int{16, 0, 16} {
		body, err := json.Marshal(faultinject.ShardRequest{Version: faultinject.ShardVersion, Config: cfg, Arch: "posit", Lo: lo, Hi: lo + 16})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, "http://worker/campaign/shard", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := st.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	rtts, attempts, shards := st.snapshot()
	if len(rtts) != 3 || attempts != 3 || shards != 2 {
		t.Errorf("%d round trips, %d attempts, %d shards; want 3, 3, 2", len(rtts), attempts, shards)
	}
	got := st.campaignShards(5)
	if len(got) != 2 || got[0].Lo != 0 || got[1].Lo != 16 {
		t.Errorf("campaign shards %+v, want [0,16) and [16,32)", got)
	}
	if other := st.campaignShards(6); len(other) != 0 {
		t.Errorf("campaign 6 has shards %+v, want none", other)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
