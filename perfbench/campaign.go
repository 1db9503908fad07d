package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"positdebug/internal/fabric"
	"positdebug/internal/faultinject"
	"positdebug/internal/obs"
)

// campaignRuns is the size of one campaign: ten shards at the fabric's
// default shard size of 16, which the campaign leaves unset. Shards are
// counted from the requests the coordinator sends, not from this size. A
// run repeats campaigns with derived seeds until --seconds have passed and
// minShards shard round trips are recorded.
const campaignRuns = 160

// campaignTailPct is the shard round-trip tail percentile.
const campaignTailPct = 95

var minShards = samplesFor(campaignTailPct)

// campaignConfig is the fixed campaign: posit gemm at campaign size, one
// fault per run, everything else at its default.
func campaignConfig(seed int64) faultinject.CampaignConfig {
	return faultinject.CampaignConfig{Workload: "polybench/gemm", Arch: "posit", Runs: campaignRuns, Seed: seed}
}

// shardTimer is the coordinator's http.RoundTripper: it times every shard
// round trip, from sending the request to closing the response body, and
// keeps the distinct shards the coordinator asked for (a retry or hedge
// re-sends a shard it already has).
type shardTimer struct {
	base http.RoundTripper
	tr   *tracer

	mu       sync.Mutex
	rtts     []time.Duration
	attempts int
	shards   map[shardKey]faultinject.ShardRequest
}

type shardKey struct {
	seed   int64
	lo, hi int
}

func (s *shardTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(r.URL.Path, "/campaign/shard") {
		return s.base.RoundTrip(r)
	}
	req, err := shardRequest(r)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	s.mu.Lock()
	s.attempts++
	s.shards[shardKey{req.Config.Seed, req.Lo, req.Hi}] = req
	s.mu.Unlock()
	resp, err := s.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d := time.Since(t0)
		s.tr.record("fabric.shard", 0, t0, d)
		s.mu.Lock()
		s.rtts = append(s.rtts, d)
		s.mu.Unlock()
	}}
	return resp, nil
}

// shardRequest decodes a copy of the request's body, leaving the request
// as the coordinator built it.
func shardRequest(r *http.Request) (faultinject.ShardRequest, error) {
	var req faultinject.ShardRequest
	if r.GetBody == nil {
		return req, fmt.Errorf("shard request without GetBody")
	}
	body, err := r.GetBody()
	if err != nil {
		return req, err
	}
	defer body.Close()
	return req, json.NewDecoder(body).Decode(&req)
}

// snapshot returns the round trips, the shard requests sent and the
// distinct shards among them.
func (s *shardTimer) snapshot() ([]time.Duration, int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.rtts...), s.attempts, len(s.shards)
}

// reset forgets everything recorded so far.
func (s *shardTimer) reset() {
	s.mu.Lock()
	s.rtts, s.attempts, s.shards = nil, 0, map[shardKey]faultinject.ShardRequest{}
	s.mu.Unlock()
}

// campaignShards returns the distinct shards sent for the campaign with the
// given seed, in run order.
func (s *shardTimer) campaignShards(seed int64) []faultinject.ShardRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []faultinject.ShardRequest
	for k, req := range s.shards {
		if k.seed == seed {
			out = append(out, req)
		}
	}
	slices.SortFunc(out, func(a, b faultinject.ShardRequest) int { return a.Lo - b.Lo })
	return out
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

type campaignState struct {
	workers []*serveState
	coord   *fabric.Coordinator
	timer   *shardTimer
	reg     *obs.Registry
}

func (c *campaignState) close() {
	for _, w := range c.workers {
		w.close()
	}
}

// setupCampaign starts nproc default-configured workers on loopback and a
// default-configured coordinator, and warms every worker's compile path
// with one campaign.
func setupCampaign(tr *tracer) (*campaignState, error) {
	st := &campaignState{reg: obs.NewRegistry()}
	var urls []string
	for i := 0; i < runtime.NumCPU(); i++ {
		w, err := startServer(nil)
		if err != nil {
			st.close()
			return nil, err
		}
		st.workers = append(st.workers, w)
		urls = append(urls, w.url)
	}
	st.timer = &shardTimer{base: &http.Transport{MaxIdleConnsPerHost: len(urls)}, tr: tr}
	st.timer.reset()
	coord, err := fabric.New(fabric.Config{
		Workers: urls, Client: &http.Client{Transport: st.timer}, Metrics: st.reg,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.coord = coord
	if _, err := coord.RunCampaign(context.Background(), campaignConfig(-1)); err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	st.timer.reset()
	return st, nil
}

// campaignSeed derives the seed of the c-th campaign of a run.
func campaignSeed(seed int64, c int) int64 { return seed*1_000_003 + int64(c) }

// runCampaign is the campaign workload: fixed seeded fault-injection
// campaigns through the fabric coordinator over nproc in-process workers,
// each merged report checked byte for byte against an in-process
// faultinject.RunCampaign with the same config.
func runCampaign(o runOpts) (*e2e, error) {
	tr, seed := o.tr, o.seed
	st, closeSt, setupS, err := timedSetup(o.setupReps(), func() (*campaignState, func(), error) {
		s, err := setupCampaign(tr)
		if err != nil {
			return nil, nil, err
		}
		return s, s.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer closeSt()

	e := &e2e{SetupS: setupS}
	var reports [][]byte
	// classified is the number of campaigns whose merged report matched the
	// reference; only their runs count towards throughput.
	classified := 0
	var busy time.Duration
	heap := startHeapSampler(5 * time.Millisecond)
	start := time.Now()
	for c := 0; ; c++ {
		rtts, _, _ := st.timer.snapshot()
		if time.Since(start).Seconds() >= o.seconds && (o.quick || len(rtts) >= minShards) {
			break
		}
		sp := tr.begin("fabric.campaign", c)
		t0 := time.Now()
		rep, err := st.coord.RunCampaign(context.Background(), campaignConfig(campaignSeed(seed, c)))
		busy += time.Since(t0)
		tr.end(sp)
		e.Attempted += campaignRuns
		if err != nil {
			e.Failed += campaignRuns - 1
			e.fail("campaign %d: %v", c, err)
			reports = append(reports, nil)
			continue
		}
		b, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		reports = append(reports, b)
	}
	e.PeakHeapMB = heap.stopMiB()
	rtts, attempts, shards := st.timer.snapshot()
	e.ShardReqs = st.timer.campaignShards(campaignSeed(seed, 0))

	// Reference: the same campaigns in-process on the parallel pool.
	var poolTime time.Duration
	poolRuns := 0
	for c, got := range reports {
		if got == nil {
			continue
		}
		poolRuns += campaignRuns
		t0 := time.Now()
		rep, err := faultinject.RunCampaign(campaignConfig(campaignSeed(seed, c)))
		poolTime += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("reference campaign %d: %w", c, err)
		}
		want, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, want) {
			e.Failed += campaignRuns - 1
			e.fail("campaign %d: fabric report differs from in-process faultinject.RunCampaign", c)
			continue
		}
		classified++
	}

	var xs []float64
	for _, d := range rtts {
		xs = append(xs, ms(d))
	}
	e.Throughput = float64(classified*campaignRuns) / busy.Seconds()
	e.P50MS = median(xs)
	e.TailMS = percentile(xs, campaignTailPct)
	e.TailPct = campaignTailPct
	e.Samples = len(xs)
	e.named("campaign.injected_runs_per_s", e.Throughput, "1/s")
	e.named("campaign.shard_p50_ms", e.P50MS, "ms")
	e.named(fmt.Sprintf("campaign.shard_tail_ms (p%d)", campaignTailPct), e.TailMS, "ms")
	e.named("campaign.campaigns", float64(len(reports)), "count")
	rttSum := 0.0
	for _, x := range xs {
		rttSum += x
	}
	e.layer("fabric.shard_rtt_ms", e.P50MS, "ms")
	e.layer("fabric.attempts", float64(attempts)/float64(max(shards, 1)), "1/shard")
	e.layer("fabric.retries", float64(st.reg.Counter(`pd_fabric_shard_retries_total{kind="campaign"}`).Value()), "count")
	e.layer("fabric.hedges", float64(st.reg.Counter(`pd_fabric_hedges_total{kind="campaign"}`).Value()), "count")
	e.layer("fabric.worker_busy_frac", rttSum/1000/(busy.Seconds()*float64(len(st.workers))), "ratio")
	e.layer("faultinject.pool_runs_per_s", float64(poolRuns)/poolTime.Seconds(), "1/s")
	return e, nil
}
