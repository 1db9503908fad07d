package main

import (
	"fmt"
	"math/rand"
	"time"

	positdebug "positdebug"
	"positdebug/internal/workloads"
)

// kernelSpec is one kernel of the kernels workload. The four were chosen
// to load different parts of the execution layers (see NOTES.md): dense
// posit arithmetic with a small working set, the same kernel in float64
// (FPSanitizer path, no posit-only fused fast path), a footprint-heavy
// kernel that stresses the shadow-memory trie, and a short kernel where
// per-run session cost shows.
type kernelSpec struct {
	Name   string
	Kernel string
	Posit  bool
}

var benchKernels = []kernelSpec{
	{"p32_gemm", "gemm", true},
	{"f64_gemm", "gemm", false},
	{"p32_spec_milc", "spec_milc", true},
	{"p32_durbin", "durbin", true},
}

// source returns the kernel at its harness size, refactored to ⟨32,2⟩
// posits for posit kernels.
func (k kernelSpec) source() (string, error) {
	wk, ok := workloads.KernelByName(k.Kernel)
	if !ok {
		return "", fmt.Errorf("no kernel %q", k.Kernel)
	}
	src := wk.Source(wk.DefaultN)
	if !k.Posit {
		return src, nil
	}
	return positdebug.RefactorToPosit(src)
}

// kernelTailPct is the per-kernel tail percentile; minKernelRuns runs per
// kernel put minTailBeyond samples beyond it. A run lasts at least
// --seconds and until every kernel has that many runs.
const kernelTailPct = 85

var minKernelRuns = samplesFor(kernelTailPct)

type kernelState struct {
	progs []*positdebug.Program
	sess  []*positdebug.Debugger
}

// setupKernels is the program work a user pays once: refactor, compile,
// instrument, open a warm session, and one warm-up run of each kind.
func setupKernels() (*kernelState, error) {
	st := &kernelState{}
	for _, ks := range benchKernels {
		src, err := ks.source()
		if err != nil {
			return nil, err
		}
		p, err := positdebug.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ks.Name, err)
		}
		d, err := p.Session()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ks.Name, err)
		}
		if _, err := d.Exec("main"); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", ks.Name, err)
		}
		if _, err := p.Exec("main", positdebug.WithBaseline()); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", ks.Name, err)
		}
		st.progs = append(st.progs, p)
		st.sess = append(st.sess, d)
	}
	return st, nil
}

// kernelRotation returns the seeded generator of the kernel order: each
// call yields the next round, a permutation of the kernel indices.
func kernelRotation(seed int64) func() []int {
	rng := rand.New(rand.NewSource(seed))
	return func() []int { return rng.Perm(len(benchKernels)) }
}

// shadowRunsPerSec is the geometric mean over kernels of each kernel's
// full-shadow runs per second of shadow time. Per kernel first, so the
// slowest kernel does not dominate as it would in a pooled rate.
func shadowRunsPerSec(perKernel [][]time.Duration) float64 {
	rates := make([]float64, 0, len(perKernel))
	for _, ds := range perKernel {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		rates = append(rates, float64(len(ds))/sum.Seconds())
	}
	return geomean(rates)
}

// runKernels is the kernels workload: one closed-loop stream of warm
// full-shadow session runs rotating over four kernels, each preceded by an
// uninstrumented run of the same kernel so the slowdown ratio is taken from
// interleaved samples that share the host's phase.
func runKernels(o runOpts) (*e2e, error) {
	tr := o.tr
	st, closeSt, setupS, err := timedSetup(o.setupReps(), func() (*kernelState, func(), error) {
		s, err := setupKernels()
		return s, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer closeSt()
	// Reference computation, excluded from setup_s: both engines must agree
	// with expected.json before anything is timed.
	for i, ks := range benchKernels {
		if err := crossCheckBackends(st.progs[i], expected.Kernels[ks.Name]); err != nil {
			return nil, fmt.Errorf("%s: %w", ks.Name, err)
		}
	}

	e := &e2e{SetupS: setupS}
	shadowDur := make([][]time.Duration, len(benchKernels))
	baseDur := make([][]time.Duration, len(benchKernels))
	next := kernelRotation(o.seed)
	heap := startHeapSampler(5 * time.Millisecond)
	start := time.Now()
	for round := 1; ; round++ {
		done := time.Since(start).Seconds() >= o.seconds
		for _, ds := range shadowDur {
			done = done && (o.quick || len(ds) >= minKernelRuns)
		}
		if done {
			break
		}
		for _, ki := range next() {
			ks := benchKernels[ki]
			want := expected.Kernels[ks.Name]
			e.Attempted += 2

			sp := tr.begin("interp.baseline."+ks.Name, round)
			t0 := time.Now()
			base, err := st.progs[ki].Exec("main", positdebug.WithBaseline())
			d := time.Since(t0)
			tr.end(sp)
			switch {
			case err != nil:
				e.fail("%s baseline: %v", ks.Name, err)
			case hexBits(base.Value) != want.Value || base.Steps != want.BaseSteps:
				e.fail("%s baseline: value %s steps %d, want %s steps %d", ks.Name, hexBits(base.Value), base.Steps, want.Value, want.BaseSteps)
			default:
				baseDur[ki] = append(baseDur[ki], d)
			}

			sp = tr.begin("shadow.session."+ks.Name, round)
			t0 = time.Now()
			res, err := st.sess[ki].Exec("main")
			d = time.Since(t0)
			tr.end(sp)
			if err != nil {
				e.fail("%s shadow: %v", ks.Name, err)
				continue
			}
			if err := checkRun(want, res.Value, res.Steps, detectionMap(res.Summary)); err != nil {
				e.fail("%s shadow: %v", ks.Name, err)
				continue
			}
			shadowDur[ki] = append(shadowDur[ki], d)
		}
	}
	e.PeakHeapMB = heap.stopMiB()

	e.Throughput = shadowRunsPerSec(shadowDur)
	var p50s, tails, slow []float64
	for ki, ks := range benchKernels {
		var xs, bs []float64
		for _, d := range shadowDur[ki] {
			xs = append(xs, ms(d))
		}
		for _, d := range baseDur[ki] {
			bs = append(bs, ms(d))
		}
		if !o.quick && !tailOK(len(xs), kernelTailPct) {
			return nil, fmt.Errorf("%s: %d correct runs, too few for p%d", ks.Name, len(xs), kernelTailPct)
		}
		p50s = append(p50s, median(xs))
		tails = append(tails, percentile(xs, kernelTailPct))
		slow = append(slow, sum(xs)/sum(bs))
		e.named("kernels."+ks.Name+".shadow_runs_per_s", float64(len(xs))/(sum(xs)/1000), "1/s")
		e.named("kernels."+ks.Name+".p50_ms", median(xs), "ms")
		e.named("kernels."+ks.Name+".slowdown", sum(xs)/sum(bs), "x")
		e.Samples += len(xs)
	}
	e.P50MS = geomean(p50s)
	e.TailMS = geomean(tails)
	e.TailPct = kernelTailPct
	e.Samples /= len(benchKernels)
	e.named("kernels.shadow_runs_per_s", e.Throughput, "1/s")
	e.named("kernels.p50_ms (geomean of per-kernel medians)", e.P50MS, "ms")
	e.named(fmt.Sprintf("kernels.tail_ms (geomean of per-kernel p%d)", kernelTailPct), e.TailMS, "ms")
	e.named("kernels.slowdown (geomean, interleaved)", geomean(slow), "x")
	return e, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
