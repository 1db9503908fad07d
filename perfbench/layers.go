package main

// This file is the traced run (--trace 1). It is the only file that picks
// an execution backend or a shadow oracle: the end-to-end passes run with
// product defaults, so a change of default shows there, and removing a
// backend or oracle option touches only this file.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	positdebug "positdebug"
	"positdebug/internal/backend"
	"positdebug/internal/bytecode"
	"positdebug/internal/codegen"
	"positdebug/internal/fabric"
	"positdebug/internal/faultinject"
	"positdebug/internal/harness"
	"positdebug/internal/instrument"
	"positdebug/internal/lang"
	"positdebug/internal/server"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
	"positdebug/internal/workloads"
)

var backends = []backend.Kind{backend.Treewalk, backend.VM}

// crossCheckBackends runs the program in a warm session on each engine and
// checks both against the reference.
func crossCheckBackends(p *positdebug.Program, want expectedRun) error {
	for _, bk := range backends {
		d, err := p.Session(positdebug.WithBackend(bk))
		if err != nil {
			return err
		}
		res, err := d.Exec("main")
		if err != nil {
			return fmt.Errorf("%s: %w", bk, err)
		}
		if err := checkRun(want, res.Value, res.Steps, detectionMap(res.Summary)); err != nil {
			return fmt.Errorf("%s: %w", bk, err)
		}
	}
	return nil
}

// layerRun accumulates the traced run's metrics and check outcome.
type layerRun struct {
	tr        *tracer
	m         map[string]metric
	attempted int
	failed    int
}

func (l *layerRun) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// absorb counts a workload pass's operations and failures.
func (l *layerRun) absorb(e *e2e) {
	l.attempted += e.Attempted
	l.failed += e.Failed
	for _, m := range e.Mismatches {
		fmt.Printf("  MISMATCH %s\n", m)
	}
}

func (l *layerRun) check(ok bool, format string, args ...any) {
	l.attempted++
	if !ok {
		l.failed++
		fmt.Printf("  MISMATCH "+format+"\n", args...)
	}
}

// overheadPairs is how many untraced/traced pairs of short passes the
// tracing overhead is measured on.
const overheadPairs = 3

// runTraced is the --trace 1 run: the per-layer measurements and the layer
// ladder (fixed work), short traced passes of serve and campaign for the
// server and fabric layers, and interleaved untraced and traced passes of
// the named workload whose paired ratios are the tracing overhead.
func runTraced(workload string, seed int64, seconds float64, run func(runOpts) (*e2e, error)) (map[string]metric, int, int, error) {
	l := &layerRun{tr: newTracer(), m: map[string]metric{}}
	steps := []func(*layerRun) error{compileLayers, stepCounts, nativeLayers, ladderLayers, allocLayers, detectLayers}
	for _, f := range steps {
		if err := f(l); err != nil {
			return nil, 0, 0, err
		}
	}

	// Tracing overhead: the workload in overheadPairs pairs of short
	// passes, untraced and traced, same seed and length, the order within
	// a pair alternating (AB BA AB) so a drift of host speed across the
	// pairs cancels rather than reading as overhead. The first traced pass
	// of serve or campaign also feeds its layers.
	seg := seconds / (2 * overheadPairs)
	var traced *e2e
	var wtr *tracer
	var ratios []float64
	for i := 0; i < overheadPairs; i++ {
		tr := newTracer()
		var pair [2]*e2e // untraced, traced
		for j := 0; j < 2; j++ {
			k := j ^ i%2
			o := runOpts{seed: seed, seconds: seg, quick: true}
			if k == 1 {
				o.tr = tr
			}
			e, err := run(o)
			if err != nil {
				return nil, 0, 0, err
			}
			l.absorb(e)
			pair[k] = e
		}
		if traced == nil {
			traced, wtr = pair[1], tr
		}
		ratios = append(ratios, pair[0].Throughput/pair[1].Throughput)
		fmt.Printf("tracing overhead on %s, pair %d: throughput %.4g untraced, %.4g traced (%+.2f%%)\n",
			workload, i+1, pair[0].Throughput, pair[1].Throughput, (ratios[i]-1)*100)
	}
	overhead := geomean(ratios)
	l.set("bench.trace_overhead", overhead, "ratio")
	fmt.Printf("tracing overhead on %s: %+.2f%% (geometric mean of %d paired ratios, which span %+.2f%% to %+.2f%%)\n",
		workload, (overhead-1)*100, overheadPairs, (slices.Min(ratios)-1)*100, (slices.Max(ratios)-1)*100)

	passes := map[string]*tracer{workload: wtr}
	for _, w := range []string{"serve", "campaign"} {
		e, tr := traced, wtr
		if w != workload {
			tr = newTracer()
			var err error
			if e, err = workloadRunners[w](runOpts{seed: seed, seconds: 3, tr: tr, quick: true}); err != nil {
				return nil, 0, 0, err
			}
			l.absorb(e)
			passes[w] = tr
		}
		for k, v := range e.Layer {
			l.m[k] = v
		}
		if w == "serve" {
			serveLayers(l, tr)
		} else if err := campaignLayers(l, e.ShardReqs); err != nil {
			return nil, 0, 0, err
		}
	}
	passes["layers"] = l.tr

	for _, k := range sortedKeys(l.m) {
		fmt.Printf("  %-36s %14.4f %s\n", k, l.m[k].Value, l.m[k].Unit)
	}
	// Spans go beside the binary, in the build directory run.sh made.
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, 0, err
	}
	for name, tr := range passes {
		if err := tr.write(filepath.Dir(exe), fmt.Sprintf("spans-%s-%s-%d.json", workload, name, seed)); err != nil {
			return nil, 0, 0, err
		}
	}
	return l.m, l.attempted, l.failed, nil
}

// compileSources are the programs the compile-pipeline layers are timed
// on: the four benchmark kernels and the 32 suite programs.
func compileSources() ([]string, error) {
	var srcs []string
	for _, ks := range benchKernels {
		src, err := ks.source()
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, src)
	}
	for _, p := range suitePrograms() {
		srcs = append(srcs, p.Source)
	}
	return srcs, nil
}

const compilePasses = 5

// compileLayers times each stage of the compile pipeline at its public
// entry point, per program, and counts the instructions it produces for
// the four kernels.
func compileLayers(l *layerRun) error {
	srcs, err := compileSources()
	if err != nil {
		return err
	}
	var irInsts, chunkInsts int
	for pass := 0; pass < compilePasses; pass++ {
		for i, src := range srcs {
			sp := l.tr.begin("lang.parse", i)
			prog, err := lang.Parse(src)
			l.tr.end(sp)
			if err != nil {
				return err
			}
			sp = l.tr.begin("lang.check", i)
			chk, err := lang.Check(prog)
			l.tr.end(sp)
			if err != nil {
				return err
			}
			sp = l.tr.begin("codegen.compile", i)
			mod, err := codegen.Compile(chk)
			if err == nil {
				err = mod.Verify()
			}
			l.tr.end(sp)
			if err != nil {
				return err
			}
			sp = l.tr.begin("instrument", i)
			im := instrument.Instrument(mod, instrument.Options{})
			l.tr.end(sp)
			sp = l.tr.begin("bytecode.compile", i)
			ch, err := bytecode.Compile(im, bytecode.Options{Fuse: true})
			if err == nil {
				err = bytecode.Verify(ch)
			}
			l.tr.end(sp)
			if err != nil {
				return err
			}
			if pass == 0 && i < len(benchKernels) {
				for _, f := range im.Funcs {
					for _, b := range f.Blocks {
						irInsts += len(b.Instrs)
					}
				}
				for _, f := range ch.Funcs {
					chunkInsts += len(f.Code)
				}
			}
		}
	}
	per := func(name string) float64 { return l.tr.total(name) * 1000 / float64(compilePasses*len(srcs)) }
	l.set("lang.parse_us", per("lang.parse"), "us")
	l.set("lang.check_us", per("lang.check"), "us")
	l.set("codegen.compile_us", per("codegen.compile"), "us")
	l.set("instrument.us", per("instrument"), "us")
	l.set("bytecode.compile_us", per("bytecode.compile"), "us")
	l.set("instrument.ir_insts", float64(irInsts), "count")
	l.set("bytecode.chunk_insts", float64(chunkInsts), "count")
	return nil
}

// stepCounts records each kernel's uninstrumented instruction count, which
// must match expected.json exactly.
func stepCounts(l *layerRun) error {
	for _, ks := range benchKernels {
		src, err := ks.source()
		if err != nil {
			return err
		}
		p, err := positdebug.Compile(src)
		if err != nil {
			return err
		}
		res, err := p.Exec("main", positdebug.WithBaseline())
		if err != nil {
			return err
		}
		want := expected.Kernels[ks.Name]
		l.check(res.Steps == want.BaseSteps && hexBits(res.Value) == want.Value,
			"%s baseline: %s/%d steps, want %s/%d", ks.Name, hexBits(res.Value), res.Steps, want.Value, want.BaseSteps)
		l.set("interp.steps_per_run."+ks.Name, float64(res.Steps), "count")
	}
	return nil
}

// nativeLayers times a native Go gemm over posit.Config32 and over float64,
// per arithmetic operation of the kernel loop: the ladder's floor.
func nativeLayers(l *layerRun) error {
	const n, reps = 28, 20
	gf, gp := newGemmF64(n), newGemmP32(n)
	var tf, tp time.Duration
	for r := 0; r < reps; r++ {
		sp := l.tr.begin("native.f64.gemm", r)
		t0 := time.Now()
		gf.kernel()
		tf += time.Since(t0)
		l.tr.end(sp)
		sp = l.tr.begin("posit.native.gemm", r)
		t0 = time.Now()
		gp.kernel()
		tp += time.Since(t0)
		l.tr.end(sp)
	}
	ops := gemmOps(n) * reps
	l.set("native.f64_ns_per_op", float64(tf)/ops, "ns")
	l.set("posit.native_ns_per_op", float64(tp)/ops, "ns")
	return nil
}

// ladderRounds is how many interleaved rounds each ladder rung is sampled;
// each rung reports its median.
const ladderRounds = 3

// ladderKernels are the two kernels the ladder is drawn for: dense gemm
// and footprint-heavy spec_milc, both in posit form.
var ladderKernels = []kernelSpec{benchKernels[0], benchKernels[2]}

// ladderRung names the rungs in ladder order.
var ladderRungs = []string{
	"native f64", "native posit", "interpreted",
	"+shadow bigfp, no DAG tracing", "+shadow bigfp", "+shadow dd", "+shadow residue",
	"+serve handler (bigfp)", "+fabric shard (per injected run)",
}

// ladderKey names one ladder sample series; bk "" marks a rung that is the
// same on every backend.
type ladderKey struct{ k, rung, bk string }

// ladderLayers draws the layer ladder for posit gemm and spec_milc on each
// backend, and derives the per-step interpreter, shadow and oracle costs
// from the same samples.
func ladderLayers(l *layerRun) error {
	samples := map[ladderKey][]float64{}
	var baseSteps, shadowSteps float64
	for _, ks := range ladderKernels {
		if err := ladderFor(l, ks, samples); err != nil {
			return err
		}
		want := expected.Kernels[ks.Name]
		baseSteps += float64(want.BaseSteps)
		shadowSteps += float64(want.Steps)
	}

	// The ladder, one row per rung, a column per backend.
	med := func(k, rung string, bk backend.Kind) float64 {
		if xs, ok := samples[ladderKey{k, rung, bk.String()}]; ok {
			return median(xs)
		}
		return median(samples[ladderKey{k, rung, ""}])
	}
	for _, ks := range ladderKernels {
		floor := med(ks.Name, "native f64", backend.Default)
		fmt.Printf("layer ladder: %s (ms per run, median of %d; x = multiple of native f64)\n", ks.Name, ladderRounds)
		fmt.Printf("  %-34s %12s %8s %12s %8s\n", "rung", "treewalk", "x", "vm", "x")
		for _, rung := range ladderRungs {
			tw, vm := med(ks.Name, rung, backend.Treewalk), med(ks.Name, rung, backend.VM)
			fmt.Printf("  %-34s %12.3f %8.1f %12.3f %8.1f\n", rung, tw, tw/floor, vm, vm/floor)
		}
	}

	sumMed := func(rung string, bk backend.Kind) float64 {
		s := 0.0
		for _, ks := range ladderKernels {
			s += med(ks.Name, rung, bk)
		}
		return s
	}
	nsPer := func(rung string, bk backend.Kind, steps float64) float64 { return sumMed(rung, bk) * 1e6 / steps }
	l.set("interp.treewalk_ns_per_step", nsPer("interpreted", backend.Treewalk, baseSteps), "ns")
	l.set("interp.vm_ns_per_step", nsPer("interpreted", backend.VM, baseSteps), "ns")
	l.set("shadow.ns_per_step", nsPer("+shadow bigfp", backend.Default, shadowSteps), "ns")
	l.set("shadow.vm_ns_per_step", nsPer("+shadow bigfp", backend.VM, shadowSteps), "ns")
	l.set("shadow.notrace_ns_per_step", nsPer("+shadow bigfp, no DAG tracing", backend.Default, shadowSteps), "ns")
	l.set("oracle.dd_ns_per_step", nsPer("+shadow dd", backend.Default, shadowSteps), "ns")
	l.set("oracle.residue_ns_per_step", nsPer("+shadow residue", backend.Default, shadowSteps), "ns")
	l.set("shadow.slowdown", sumMed("+shadow bigfp", backend.Default)/sumMed("interpreted", backend.Default), "x")
	return nil
}

// ladderFor samples every rung of one kernel's ladder, round-robin for
// ladderRounds rounds, checking each rung's result as it goes.
func ladderFor(l *layerRun, ks kernelSpec, samples map[ladderKey][]float64) error {
	psrc, err := ks.source()
	if err != nil {
		return err
	}
	fsrc, err := kernelSpec{Kernel: ks.Kernel}.source()
	if err != nil {
		return err
	}
	prog, err := positdebug.Compile(psrc)
	if err != nil {
		return err
	}
	fprog, err := positdebug.Compile(fsrc)
	if err != nil {
		return err
	}
	fref, err := fprog.Exec("main", positdebug.WithBaseline())
	if err != nil {
		return err
	}
	want := expected.Kernels[ks.Name]
	wk, _ := workloads.KernelByName(ks.Kernel)
	n := wk.DefaultN
	nativeF64, nativeP32 := nativeGemmF64, nativeGemmP32
	if ks.Kernel == "spec_milc" {
		nativeF64, nativeP32 = nativeMilcF64, nativeMilcP32
	}

	// One warm session per (backend, shadow rung).
	notrace := shadow.DefaultConfig()
	notrace.Tracing = false
	shadowRungs := []struct {
		rung string
		opts []positdebug.Option
	}{
		{"+shadow bigfp, no DAG tracing", []positdebug.Option{positdebug.WithShadow(notrace)}},
		{"+shadow bigfp", nil},
		{"+shadow dd", []positdebug.Option{positdebug.WithShadowOracle(oracle.DD)}},
		{"+shadow residue", []positdebug.Option{positdebug.WithShadowOracle(oracle.Residue)}},
	}
	sessions := map[ladderKey]*positdebug.Debugger{}
	handlers := map[backend.Kind]http.Handler{}
	body, _ := json.Marshal(server.RunRequest{Source: psrc}) // strings and bools always marshal
	serveOnce := func(h http.Handler) (server.RunResponse, error) {
		var resp server.RunResponse
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			return resp, fmt.Errorf("serve %s: status %d", ks.Name, w.Code)
		}
		return resp, json.Unmarshal(w.Body.Bytes(), &resp)
	}
	for _, bk := range backends {
		for _, sr := range shadowRungs {
			d, err := prog.Session(append(sr.opts, positdebug.WithBackend(bk))...)
			if err != nil {
				return err
			}
			if _, err := d.Exec("main"); err != nil {
				return err
			}
			sessions[ladderKey{ks.Name, sr.rung, bk.String()}] = d
		}
		handlers[bk] = server.New(server.Config{Backend: bk}).Handler()
		if _, err := serveOnce(handlers[bk]); err != nil { // fills the compile cache
			return err
		}
	}
	worker, err := startServer(nil)
	if err != nil {
		return err
	}
	defer worker.close()
	coord, err := fabric.New(fabric.Config{Workers: []string{worker.url}})
	if err != nil {
		return err
	}
	const shardRuns = 4
	ccfg := faultinject.CampaignConfig{Workload: "polybench/" + ks.Kernel, N: n, Arch: "posit", Runs: shardRuns, Seed: 1}

	timeIt := func(k ladderKey, f func() error) error {
		sp := l.tr.begin("ladder."+k.k+"."+k.bk+"."+k.rung, 0)
		t0 := time.Now()
		err := f()
		samples[k] = append(samples[k], ms(time.Since(t0)))
		l.tr.end(sp)
		return err
	}
	for r := 0; r < ladderRounds; r++ {
		if err := timeIt(ladderKey{ks.Name, "native f64", ""}, func() error {
			v := math.Float64bits(nativeF64(n))
			l.check(v == fref.Value, "%s native f64: %x, interpreted %x", ks.Name, v, fref.Value)
			return nil
		}); err != nil {
			return err
		}
		if err := timeIt(ladderKey{ks.Name, "native posit", ""}, func() error {
			v := hexBits(uint64(nativeP32(n)))
			l.check(v == want.Value, "%s native posit: %s, interpreted %s", ks.Name, v, want.Value)
			return nil
		}); err != nil {
			return err
		}
		for _, bk := range backends {
			if err := timeIt(ladderKey{ks.Name, "interpreted", bk.String()}, func() error {
				res, err := prog.Exec("main", positdebug.WithBaseline(), positdebug.WithBackend(bk))
				if err == nil {
					l.check(hexBits(res.Value) == want.Value, "%s interpreted %s: %s", ks.Name, bk, hexBits(res.Value))
				}
				return err
			}); err != nil {
				return err
			}
			for _, sr := range shadowRungs {
				k := ladderKey{ks.Name, sr.rung, bk.String()}
				if err := timeIt(k, func() error {
					res, err := sessions[k].Exec("main")
					if err == nil {
						l.check(hexBits(res.Value) == want.Value && res.Steps == want.Steps,
							"%s %s %s: %s/%d steps", ks.Name, sr.rung, bk, hexBits(res.Value), res.Steps)
					}
					return err
				}); err != nil {
					return err
				}
			}
			if err := timeIt(ladderKey{ks.Name, "+serve handler (bigfp)", bk.String()}, func() error {
				resp, err := serveOnce(handlers[bk])
				if err == nil {
					l.check(resp.Value == want.Value, "%s serve %s: %s", ks.Name, bk, resp.Value)
				}
				return err
			}); err != nil {
				return err
			}
		}
		// Campaign shards carry no backend: workers run them on the
		// default engine, so this rung has one column.
		k := ladderKey{ks.Name, "+fabric shard (per injected run)", ""}
		if err := timeIt(k, func() error {
			_, err := coord.RunCampaign(context.Background(), ccfg)
			return err
		}); err != nil {
			return err
		}
		samples[k][len(samples[k])-1] /= shardRuns
	}
	return nil
}

// allocLayers measures the allocations of one warm default session run of
// posit gemm from runtime.MemStats deltas.
func allocLayers(l *layerRun) error {
	src, err := benchKernels[0].source()
	if err != nil {
		return err
	}
	p, err := positdebug.Compile(src)
	if err != nil {
		return err
	}
	d, err := p.Session()
	if err != nil {
		return err
	}
	if _, err := d.Exec("main"); err != nil {
		return err
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sp := l.tr.begin("shadow.session.p32_gemm", i)
		_, err := d.Exec("main")
		l.tr.end(sp)
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	l.set("shadow.alloc_bytes_per_run", float64(after.TotalAlloc-before.TotalAlloc)/runs, "B")
	l.set("shadow.allocs_per_run", float64(after.Mallocs-before.Mallocs)/runs, "count")
	return nil
}

// detectLayers times the §5.1 detection suite and counts the programs in
// which at least one expected error kind is detected.
func detectLayers(l *layerRun) error {
	const reps = 3
	var times []float64
	correct := 0
	for r := 0; r < reps; r++ {
		sp := l.tr.begin("harness.detection", r)
		t0 := time.Now()
		res, err := harness.RunDetection()
		times = append(times, ms(time.Since(t0)))
		l.tr.end(sp)
		if err != nil {
			return err
		}
		suite := workloads.Suite()
		correct = 0
		for i, row := range res.Rows {
			for _, k := range suite[i].Expect {
				if slices.Contains(row.Detected, k) {
					correct++
					break
				}
			}
		}
	}
	l.check(correct == len(workloads.Suite()), "detection suite: %d of %d programs flagged as expected", correct, len(workloads.Suite()))
	l.set("detect.suite_ms", median(times), "ms")
	l.set("detect.suite_correct", float64(correct), "count")
	return nil
}

// serveLayers derives the server metrics from a traced serve pass: handler
// time from the wrapper around Server.Handler, and the client's latency
// minus it, request by request.
func serveLayers(l *layerRun, tr *tracer) {
	handler := map[int]float64{}
	client := map[int]float64{}
	tr.mu.Lock()
	for _, s := range tr.spans {
		d := float64(s.End-s.Start) / 1e6
		switch {
		case s.Req < 0: // warm-up requests
		case s.Name == "server.handler":
			handler[s.Req] = d
		case s.Name == "client.request":
			client[s.Req] = d
		}
	}
	tr.mu.Unlock()
	var hs, over []float64
	for seq, h := range handler {
		hs = append(hs, h)
		if c, ok := client[seq]; ok {
			over = append(over, c-h)
		}
	}
	l.set("server.handler_p50_ms", median(hs), "ms")
	l.set("server.client_overhead_ms", median(over), "ms")
}

// campaignLayers runs the shards the coordinator sent for one campaign
// in-process through faultinject.RunShard: the shard cost without the
// HTTP/JSON wire.
func campaignLayers(l *layerRun, shards []faultinject.ShardRequest) error {
	if len(shards) == 0 {
		return fmt.Errorf("campaign pass recorded no shard requests")
	}
	var times []float64
	for _, req := range shards {
		sp := l.tr.begin("faultinject.shard", req.Lo)
		t0 := time.Now()
		_, err := faultinject.RunShard(context.Background(), req)
		times = append(times, ms(time.Since(t0)))
		l.tr.end(sp)
		if err != nil {
			return err
		}
	}
	l.set("faultinject.shard_ms", median(times), "ms")
	return nil
}
