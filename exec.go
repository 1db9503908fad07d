package positdebug

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"positdebug/internal/backend"
	"positdebug/internal/herbgrind"
	"positdebug/internal/instrument"
	"positdebug/internal/interp"
	"positdebug/internal/ir"
	"positdebug/internal/obs"
	"positdebug/internal/profile"
	"positdebug/internal/shadow"
	"positdebug/internal/shadow/oracle"
)

// Option configures one execution (Program.Exec, Debugger.Exec) or one warm
// session (Program.Session). Options compose freely; incompatible
// combinations (e.g. WithBaseline with WithShadow) are reported as errors
// instead of being silently resolved.
type Option func(*execConfig)

type execConfig struct {
	ctx        context.Context
	shadowCfg  shadow.Config
	shadowSet  bool
	skip       []string
	limits     interp.Limits
	limitsSet  bool
	wrap       func(interp.Hooks) interp.Hooks
	trace      obs.Sink
	traceSet   bool
	metrics    *obs.Registry
	metricsSet bool
	herb       bool
	herbPrec   uint
	baseline   bool
	args       []uint64
	prof       *profile.Collector
	profSet    bool
	sample     int64
	sampleSet  bool
	spans      *obs.Tracer
	backend    backend.Kind
	backendSet bool
	oracleKind oracle.Kind
	oracleSet  bool
}

// WithContext governs the run with a context: cancelling it stops the
// interpreter cooperatively within one poll interval (a few thousand
// instructions) and the run returns a structured *interp.Cancelled —
// distinct from the *interp.ResourceExhausted a budget trip produces.
// This is a per-run option (like WithLimits): pass it to Exec or
// Debugger.Exec, not Session.
func WithContext(ctx context.Context) Option {
	return func(ec *execConfig) { ec.ctx = ctx }
}

// context returns the run's governing context (Background when unset).
func (ec *execConfig) context() context.Context {
	if ec.ctx != nil {
		return ec.ctx
	}
	return context.Background()
}

// WithShadow selects shadow execution with the given configuration.
// Omitting it (and WithBaseline/WithHerbgrind) runs with
// shadow.DefaultConfig().
func WithShadow(cfg shadow.Config) Option {
	return func(ec *execConfig) { ec.shadowCfg = cfg; ec.shadowSet = true }
}

// WithSkip leaves the named functions uninstrumented — the paper's
// incremental-deployment mode (§4.1). The module is instrumented fresh for
// the run (or once per session), so prefer a Session when running many
// times with the same skip set.
func WithSkip(fns ...string) Option {
	return func(ec *execConfig) { ec.skip = append(ec.skip, fns...) }
}

// WithLimits bounds the run with a wall-clock timeout and step budget,
// reported as structured *interp.ResourceExhausted errors.
func WithLimits(lim interp.Limits) Option {
	return func(ec *execConfig) { ec.limits = lim; ec.limitsSet = true }
}

// WithHooksWrapper decorates the shadow runtime's hooks before they attach
// to the machine — the seam fault injectors plug into. The wrapper runs
// once per attempt, so a deterministic decorator replays its schedule on a
// degraded retry.
func WithHooksWrapper(w func(interp.Hooks) interp.Hooks) Option {
	return func(ec *execConfig) { ec.wrap = w }
}

// WithTrace streams structured events (run lifecycle, detections,
// precision degradation) into the sink. Detection events are not capped by
// shadow.Config.MaxReports; bound memory with a bounded sink such as
// obs.NewRing. Passing nil disables a session-level sink for one run.
func WithTrace(sink obs.Sink) Option {
	return func(ec *execConfig) { ec.trace = sink; ec.traceSet = true }
}

// WithMetrics accumulates counters and histograms into the registry:
// detections by kind, shadowed ops, per-instruction error-bits
// distributions, executed steps, and per-opcode timing attribution.
func WithMetrics(reg *obs.Registry) Option {
	return func(ec *execConfig) { ec.metrics = reg; ec.metricsSet = true }
}

// WithHerbgrind selects the Herbgrind-style baseline runtime
// (per-dynamic-op trace metadata, §5.4 comparison) at the given shadow
// precision (0 means 256). The trace-node count lands in
// Result.TraceNodes.
func WithHerbgrind(precision uint) Option {
	return func(ec *execConfig) { ec.herb = true; ec.herbPrec = precision }
}

// WithBaseline runs the uninstrumented program — no shadow execution, no
// detections. Limits, tracing and metrics still apply.
func WithBaseline() Option {
	return func(ec *execConfig) { ec.baseline = true }
}

// WithArgs passes argument bit patterns to the entry function (see P32Arg,
// F64Arg and friends for encoding helpers).
func WithArgs(args ...uint64) Option {
	return func(ec *execConfig) { ec.args = append(ec.args, args...) }
}

// WithProfile accumulates per-static-instruction error statistics into the
// collector: dynamic counts, the error-bits histogram, cancellation
// severity, saturation/NaR tallies, and (when the collector's Timing flag
// is set) shadow-op latency. The collector persists across runs — snapshot
// it with profile.Collector.Snapshot and merge snapshots across workers
// (profile.Merge is commutative, so the merged profile is byte-identical
// whatever the worker count). Requires shadow execution.
func WithProfile(c *profile.Collector) Option {
	return func(ec *execConfig) { ec.prof = c; ec.profSet = true }
}

// WithSampling shadows every nth dynamic instance of each static compute
// instruction (binary/unary ops, casts, FMA, quire rounding) and skips the
// rest, cutting shadow overhead roughly by n at the cost of missing
// detections on skipped instances. Structural events always run, so
// metadata propagation and the output oracle stay exact. The decision is
// deterministic — (instruction id, occurrence counter), counters reset per
// run — so sampled runs are as reproducible as full ones. n ≤ 1 means full
// shadow. Requires shadow execution.
func WithSampling(n int) Option {
	return func(ec *execConfig) { ec.sample = int64(n); ec.sampleSet = true }
}

// WithShadowOracle selects the shadow-arithmetic backend for the run or
// session: oracle.BigFP (arbitrary precision, the default; governed by
// shadow.Config.Precision), oracle.DD (allocation-free double-double,
// ~106 bits) or oracle.Residue (float64 estimate with per-op rounding
// residues, 53 bits). It composes with WithShadow — the oracle choice
// overrides the config's Oracle field — and requires shadow execution.
// Fixed-precision oracles do not take part in shadow-memory precision
// degradation: if a dd/residue run trips the budget, the structured
// *interp.ResourceExhausted is returned as-is.
func WithShadowOracle(kind oracle.Kind) Option {
	return func(ec *execConfig) { ec.oracleKind = kind; ec.oracleSet = true }
}

// WithBackend selects the execution engine for the run or session: the
// tree-walking reference interpreter (backend.Treewalk, the default) or the
// fused-bytecode VM (backend.VM). The two produce byte-identical detection
// reports, traces, campaign artifacts, and merged profiles; the VM is the
// fast path for shadow execution, the tree-walker the differential-testing
// oracle. Runs that need per-IR-instruction granularity (instruction
// tracing, per-opcode timing via WithMetrics) fall back to the tree-walker
// transparently.
func WithBackend(k backend.Kind) Option {
	return func(ec *execConfig) { ec.backend = k; ec.backendSet = true }
}

// WithSpans emits causal spans (shadow-exec, report) for the run into the
// tracer — the feed behind the Chrome-trace export (obs.WriteChromeTrace).
// The tracer's sink sees span-begin/span-end events interleaved with the
// run's other events. Requires nothing special; baseline and Herbgrind
// runs emit an exec span.
func WithSpans(tr *obs.Tracer) Option {
	return func(ec *execConfig) { ec.spans = tr }
}

func buildExecConfig(opts []Option) (*execConfig, error) {
	ec := &execConfig{}
	for _, o := range opts {
		o(ec)
	}
	switch {
	case ec.baseline && ec.herb:
		return nil, fmt.Errorf("positdebug: WithBaseline conflicts with WithHerbgrind")
	case ec.baseline && ec.shadowSet:
		return nil, fmt.Errorf("positdebug: WithBaseline conflicts with WithShadow")
	case ec.herb && ec.shadowSet:
		return nil, fmt.Errorf("positdebug: WithHerbgrind conflicts with WithShadow")
	case (ec.baseline || ec.herb) && len(ec.skip) > 0:
		return nil, fmt.Errorf("positdebug: WithSkip requires shadow execution")
	case (ec.baseline || ec.herb) && ec.wrap != nil:
		return nil, fmt.Errorf("positdebug: WithHooksWrapper requires shadow execution")
	case (ec.baseline || ec.herb) && (ec.profSet || ec.sampleSet):
		return nil, fmt.Errorf("positdebug: WithProfile/WithSampling require shadow execution")
	case (ec.baseline || ec.herb) && ec.oracleSet:
		return nil, fmt.Errorf("positdebug: WithShadowOracle requires shadow execution")
	case ec.sampleSet && ec.sample < 0:
		return nil, fmt.Errorf("positdebug: negative sampling stride %d", ec.sample)
	}
	if !ec.shadowSet && !ec.baseline && !ec.herb {
		ec.shadowCfg = shadow.DefaultConfig()
	}
	if ec.oracleSet {
		ec.shadowCfg.Oracle = ec.oracleKind
	}
	if ec.herb && ec.herbPrec == 0 {
		ec.herbPrec = 256
	}
	return ec, nil
}

// Exec runs the program's named function. With no options it is shadow
// execution under shadow.DefaultConfig(); options select the baseline or
// Herbgrind runtimes, pass arguments, bound the run, decorate hooks, and
// attach event tracing and metrics. A shadow Exec is a one-shot session:
// it resolves the options as Program.Session does and runs once through
// the same path as Debugger.Exec, so it honors execution limits and, when
// shadow.Config.MaxShadowBytes is set, retries at degraded precision
// (halving down to shadow.MinPrecision) instead of failing, flagging the
// result Degraded.
func (p *Program) Exec(fn string, opts ...Option) (*Result, error) {
	ec, err := buildExecConfig(opts)
	if err != nil {
		return nil, err
	}
	switch {
	case ec.baseline:
		return execPlain(p.Module, nil, 0, ec, fn)
	case ec.herb:
		mod := p.Instrumented()
		rt := herbgrind.New(mod, ec.herbPrec)
		res, err := execPlain(mod, rt, ec.herbPrec, ec, fn)
		if res != nil {
			res.TraceNodes = rt.TraceNodes()
		}
		return res, err
	}
	mod, cfg := p.sessionSetup(ec)
	return run(nil, mod, cfg, ec, fn)
}

// monoBase anchors the monotonic clock behind shadow-op latency timing.
var monoBase = time.Now()

// monoNanos returns monotonic nanoseconds since a process-local base.
func monoNanos() int64 { return int64(time.Since(monoBase)) }

// samplingFor returns the sampling/timing decorator a run needs over inner
// — non-nil when the stride subsamples (n > 1) or the collector wants
// latency timing — with its callbacks bound to the collector.
func samplingFor(inner interp.Hooks, c *profile.Collector, n int64) *interp.Sampling {
	if n <= 1 && (c == nil || !c.Timing) {
		return nil
	}
	s := interp.NewSampling(inner, n)
	if c != nil {
		s.OnSkip = c.Skipped
		if c.Timing {
			s.Clock = monoNanos
			s.OnTime = c.Latency
		}
	}
	return s
}

// emitRunStart/emitRunEnd bracket one execution in the event stream.
func emitRunStart(sink obs.Sink, fn string, precision uint) {
	if sink == nil {
		return
	}
	e := obs.NewEvent(obs.EvRunStart)
	e.Func = fn
	e.Precision = precision
	sink.Emit(e)
}

func emitRunEnd(sink obs.Sink, outcome string, steps int64, precision uint) {
	if sink == nil {
		return
	}
	e := obs.NewEvent(obs.EvRunEnd)
	e.Outcome = outcome
	e.Steps = steps
	e.Precision = precision
	sink.Emit(e)
}

// flushRunMetrics records the per-run interpreter-side metrics: executed
// steps and, when profiling ran, per-opcode counts and time.
func flushRunMetrics(reg *obs.Registry, steps int64, prof *interp.OpProfile) {
	if reg == nil {
		return
	}
	reg.Counter("pd_steps_total").Add(steps)
	reg.Counter("pd_runs_total").Inc()
	if prof == nil {
		return
	}
	for _, s := range prof.Stats() {
		reg.Counter(`pd_op_count{op="` + s.Op.String() + `"}`).Add(s.Count)
		reg.Counter(`pd_op_nanos{op="` + s.Op.String() + `"}`).Add(s.Nanos)
	}
}

// runMachine executes fn once on m under the run's context, limits and
// arguments, inside the named span, and records the interpreter-side
// metrics into reg (per-opcode timing only when reg is set).
func runMachine(m *interp.Machine, reg *obs.Registry, span string, ec *execConfig, fn string) (uint64, error) {
	switch {
	case reg == nil:
		m.Prof = nil
	case m.Prof == nil:
		m.Prof = &interp.OpProfile{}
	default:
		m.Prof.Reset()
	}
	sp := ec.spans.Start(span)
	v, err := m.RunContext(ec.context(), fn, ec.limits, ec.args...)
	sp.End()
	flushRunMetrics(reg, m.Steps(), m.Prof)
	return v, err
}

// execPlain runs fn without shadow execution: uninstrumented (hooks nil,
// the baseline) or under the Herbgrind runtime, framed in the event stream
// at the given precision.
func execPlain(mod *ir.Module, hooks interp.Hooks, precision uint, ec *execConfig, fn string) (*Result, error) {
	m := interp.New(mod)
	m.Backend = ec.backend
	m.Hooks = hooks
	var out bytes.Buffer
	m.Out = &out
	emitRunStart(ec.trace, fn, precision)
	v, err := runMachine(m, ec.metrics, "exec", ec, fn)
	if err != nil {
		emitRunEnd(ec.trace, "error", m.Steps(), precision)
		return nil, err
	}
	emitRunEnd(ec.trace, "ok", m.Steps(), precision)
	return &Result{Value: v, Output: out.String(), Steps: m.Steps()}, nil
}

// Session builds a warm-reusable shadow-execution session configured by
// options: WithShadow selects the configuration (default
// shadow.DefaultConfig()), WithSkip instruments with functions left out,
// and WithTrace/WithMetrics/WithProfile/WithSampling bind session-level
// sinks and sampled-shadow state. Baseline/Herbgrind
// and per-run options (limits, hook wrappers, args) are rejected — pass
// those to Debugger.Exec.
//
// The instrumented module is built (and, without WithSkip, cached on the
// Program) here, so concurrent workers construct sessions only after one
// call has populated the cache — or sequentially, as parallel.MapWorker
// does.
func (p *Program) Session(opts ...Option) (*Debugger, error) {
	ec, err := buildExecConfig(opts)
	if err != nil {
		return nil, err
	}
	if ec.baseline || ec.herb {
		return nil, fmt.Errorf("positdebug: Session supports shadow execution only")
	}
	if ec.wrap != nil || len(ec.args) > 0 || ec.limitsSet || ec.ctx != nil {
		return nil, fmt.Errorf("positdebug: WithHooksWrapper/WithArgs/WithLimits/WithContext are per-run options; pass them to Debugger.Exec")
	}
	mod, cfg := p.sessionSetup(ec)
	rt, sampler, err := newRuntime(mod, cfg, ec.sample)
	if err != nil {
		return nil, err
	}
	m := interp.New(mod)
	m.Backend = ec.backend
	d := &Debugger{cfg: cfg, mod: mod, rt: rt, m: m, sampleN: ec.sample, sampler: sampler}
	m.Out = &d.out
	return d, nil
}

// bindSinks points cfg at the event sink, metrics registry and profile
// collector the options set, leaving the others as they are.
func (ec *execConfig) bindSinks(cfg *shadow.Config) {
	if ec.traceSet {
		cfg.Events = ec.trace
	}
	if ec.metricsSet {
		cfg.Metrics = ec.metrics
	}
	if ec.profSet {
		cfg.Profile = ec.prof
	}
}

// sessionSetup resolves what a session fixes at instrumentation time: the
// module instrumented with the skip set, and the shadow config with the
// sinks bound.
func (p *Program) sessionSetup(ec *execConfig) (*ir.Module, shadow.Config) {
	cfg := ec.shadowCfg
	ec.bindSinks(&cfg)
	mod := p.Instrumented()
	if len(ec.skip) > 0 {
		skipSet := make(map[string]bool, len(ec.skip))
		for _, s := range ec.skip {
			skipSet[s] = true
		}
		mod = instrument.Instrument(p.Module, instrument.Options{Skip: skipSet})
	}
	return mod, cfg
}

// newRuntime builds a shadow runtime over an instrumented module, with the
// sampling/timing decorator the config and stride ask for (nil for full,
// untimed shadow).
func newRuntime(mod *ir.Module, cfg shadow.Config, sampleN int64) (*shadow.Runtime, *interp.Sampling, error) {
	rt, err := shadow.New(mod, cfg)
	if err != nil {
		return nil, nil, err
	}
	return rt, samplingFor(rt, cfg.Profile, sampleN), nil
}

// Exec runs the session's program on the warm runtime and machine.
// Accepted options: WithLimits, WithHooksWrapper, WithArgs, WithTrace,
// WithMetrics, WithProfile, WithSampling, WithSpans (sink-like options
// rebind the session's sinks — campaign workers point each run at its own
// buffer). Options that change the
// session's instrumentation (WithShadow, WithSkip, WithBaseline,
// WithHerbgrind) are rejected; build a new Session instead.
//
// Degraded retries run on a transient runtime and machine at the reduced
// precision; the session itself stays at the requested precision, so one
// budget-tripping run does not degrade subsequent ones.
func (d *Debugger) Exec(fn string, opts ...Option) (*Result, error) {
	ec := &execConfig{}
	for _, o := range opts {
		o(ec)
	}
	if ec.shadowSet || ec.oracleSet || len(ec.skip) > 0 || ec.baseline || ec.herb {
		return nil, fmt.Errorf("positdebug: WithShadow/WithShadowOracle/WithSkip/WithBaseline/WithHerbgrind configure a session; build a new Session instead")
	}
	if ec.sampleSet && ec.sample < 0 {
		return nil, fmt.Errorf("positdebug: negative sampling stride %d", ec.sample)
	}
	ec.bindSinks(&d.cfg)
	if ec.traceSet {
		d.rt.SetEvents(ec.trace)
	}
	if ec.metricsSet {
		d.rt.SetMetrics(ec.metrics)
	}
	if ec.profSet {
		d.rt.SetProfile(ec.prof)
		d.sampler = nil
	}
	if ec.sampleSet {
		d.sampleN = ec.sample
		d.sampler = nil
	}
	if ec.backendSet {
		d.m.Backend = ec.backend
	}
	// A degraded retry builds its transient machine like this one.
	ec.backend, ec.sample = d.m.Backend, d.sampleN
	return run(d, d.mod, d.cfg, ec, fn)
}

// run executes fn under config cfg with the per-run options in ec, framed
// in the event stream: on session d's warm runtime and machine, or, when d
// is nil, on a one-shot runtime and machine built here from mod, cfg,
// ec.backend and ec.sample. When a bigfp run exceeds the shadow-memory
// budget it retries on a transient runtime and machine built the same way
// at half the precision, down to shadow.MinPrecision, and flags the result
// Degraded; d itself stays at the requested precision. A fixed-precision
// oracle has no precision knob, so its budget trip surfaces as the
// structured error (the server-side watchdog degrades across oracles
// instead).
func run(d *Debugger, mod *ir.Module, cfg shadow.Config, ec *execConfig, fn string) (*Result, error) {
	requested := cfg.Precision
	emitRunStart(cfg.Events, fn, requested)
	for {
		var (
			rt      *shadow.Runtime
			m       *interp.Machine
			sampler *interp.Sampling
			out     *bytes.Buffer
		)
		if d != nil {
			if d.sampler == nil {
				d.sampler = samplingFor(d.rt, cfg.Profile, d.sampleN)
			}
			rt, m, sampler, out = d.rt, d.m, d.sampler, &d.out
		} else {
			// The machine is built here rather than in a helper: for
			// one-shot runs under perfbench's serve workload (2-core VM)
			// that placement measured ~3 MiB lower p99 live heap.
			var err error
			if rt, sampler, err = newRuntime(mod, cfg, ec.sample); err != nil {
				return nil, err
			}
			m = interp.New(mod)
			m.Backend = ec.backend
			out = new(bytes.Buffer)
			m.Out = out
		}
		res, err := attempt(rt, m, sampler, out, cfg, ec, fn)
		if err != nil {
			var re *interp.ResourceExhausted
			if errors.As(err, &re) && re.Resource == interp.ResShadowMemory &&
				cfg.OracleKind() == oracle.BigFP && cfg.Precision > shadow.MinPrecision {
				cfg.Precision /= 2
				if cfg.Precision < shadow.MinPrecision {
					cfg.Precision = shadow.MinPrecision
				}
				if cfg.Events != nil {
					e := obs.NewEvent(obs.EvDegrade)
					e.Precision = cfg.Precision
					cfg.Events.Emit(e)
				}
				d = nil
				continue
			}
			emitRunEnd(cfg.Events, "error", m.Steps(), cfg.Precision)
			return nil, err
		}
		res.Degraded = cfg.Precision != requested
		outcome := "ok"
		if res.Degraded {
			outcome = "degraded"
		}
		emitRunEnd(cfg.Events, outcome, m.Steps(), cfg.Precision)
		return res, nil
	}
}

// attempt is one execution on a runtime and machine: the hook chain is the
// runtime innermost, then the sampling/timing decorator, then the per-run
// wrapper (fault injectors) outermost — so injected faults still reach the
// oracle on sampled runs.
func attempt(rt *shadow.Runtime, m *interp.Machine, sampler *interp.Sampling, out *bytes.Buffer, cfg shadow.Config, ec *execConfig, fn string) (*Result, error) {
	var hooks interp.Hooks = rt
	if sampler != nil {
		hooks = sampler
	}
	if ec.wrap != nil {
		hooks = ec.wrap(hooks)
	}
	m.Hooks = hooks
	out.Reset()
	v, err := runMachine(m, cfg.Metrics, "shadow-exec", ec, fn)
	if err != nil {
		return nil, err
	}
	rp := ec.spans.Start("report")
	summary := rt.Summary()
	rp.End()
	res := &Result{Value: v, Output: out.String(), Steps: m.Steps(), Summary: summary}
	res.ShadowOracle = cfg.OracleKind()
	res.ShadowPrecision = oracle.NominalPrecision(res.ShadowOracle, cfg.Precision)
	return res, nil
}
