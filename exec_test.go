package positdebug

import (
	"reflect"
	"strings"
	"testing"

	"positdebug/internal/interp"
	"positdebug/internal/obs"
	"positdebug/internal/shadow"
	"positdebug/internal/workloads"
)

// TestExecOptionConflicts: incompatible option combinations fail loudly
// instead of silently picking a mode.
func TestExecOptionConflicts(t *testing.T) {
	prog, err := Compile(fig2)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]Option{
		{WithBaseline(), WithHerbgrind(256)},
		{WithBaseline(), WithShadow(shadow.DefaultConfig())},
		{WithHerbgrind(256), WithShadow(shadow.DefaultConfig())},
		{WithBaseline(), WithSkip("f")},
		{WithHerbgrind(256), WithHooksWrapper(func(h interp.Hooks) interp.Hooks { return h })},
	}
	for i, opts := range bad {
		if _, err := prog.Exec("main", opts...); err == nil {
			t.Fatalf("conflict set %d accepted", i)
		}
	}
	if _, err := prog.Session(WithBaseline()); err == nil {
		t.Fatal("Session must reject WithBaseline")
	}
	if _, err := prog.Session(WithLimits(interp.Limits{})); err == nil {
		t.Fatal("Session must reject per-run options")
	}
	dbg, err := prog.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dbg.Exec("main", WithShadow(shadow.DefaultConfig())); err == nil {
		t.Fatal("Debugger.Exec must reject WithShadow (fixed at Session time)")
	}
}

// TestExecTraceAndMetrics: one shadow run with a sink and registry
// attached produces run framing plus detections, and the registry picks
// up the op and detection counters.
func TestExecTraceAndMetrics(t *testing.T) {
	prog, err := Compile(fig2)
	if err != nil {
		t.Fatal(err)
	}
	buf := &obs.Buffer{}
	reg := obs.NewRegistry()
	res, err := prog.Exec("main", WithTrace(buf), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	events := buf.Events()
	if len(events) < 3 {
		t.Fatalf("got %d events, want run-start + detections + run-end", len(events))
	}
	if events[0].Kind != obs.EvRunStart || events[0].Func != "main" {
		t.Fatalf("first event %+v, want run-start main", events[0])
	}
	last := events[len(events)-1]
	if last.Kind != obs.EvRunEnd || last.Outcome != "ok" {
		t.Fatalf("last event %+v, want run-end ok", last)
	}
	sawDetect := false
	for _, e := range events {
		if e.Kind == obs.EvDetect {
			sawDetect = true
			if e.Detect == "" || e.Inst < 0 {
				t.Fatalf("malformed detection event %+v", e)
			}
		}
	}
	if !sawDetect {
		t.Fatal("fig2 must produce detection events")
	}
	if reg.Counter("pd_shadow_ops_total").Value() == 0 {
		t.Fatal("pd_shadow_ops_total not incremented")
	}
	if reg.Counter("pd_runs_total").Value() != 1 {
		t.Fatalf("pd_runs_total = %d, want 1", reg.Counter("pd_runs_total").Value())
	}
	kindName := shadow.KindCancellation.String()
	if reg.Counter(`pd_detections_total{kind="`+kindName+`"}`).Value() == 0 {
		t.Fatal("cancellation counter not incremented")
	}
	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "pd_op_nanos") {
		t.Fatalf("per-opcode timing attribution missing from metrics dump:\n%s", prom.String())
	}
	_ = res
}

// TestExecDOTExport: the Summary of a traced run exports its DAGs as DOT
// that passes the structural checker, and as JSON.
func TestExecDOTExport(t *testing.T) {
	prog, err := Compile(fig2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Exec("main")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Summary.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckDOT(sb.String()); err != nil {
		t.Fatalf("exported DOT fails the checker: %v\n%s", err, sb.String())
	}
	j, err := res.Summary.GraphsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(j), `"nodes"`) {
		t.Fatalf("graphs JSON missing nodes:\n%s", j)
	}
}

// TestDegradeParityColdWarm: a shadow-memory budget that trips at 256 bits
// and fits at 128 (gemm n=8: ~1.44 MB against ~918 KB) degrades a cold
// Exec, a first warm Debugger.Exec and a second warm run on the same
// session identically — the same event stream (run-start, one degrade,
// run-end "degraded"), value, steps, output and detection counts. The
// second warm run pins that the session itself stays at the requested
// precision.
func TestDegradeParityColdWarm(t *testing.T) {
	k, ok := workloads.KernelByName("gemm")
	if !ok {
		t.Fatal("no gemm kernel")
	}
	src, err := RefactorToPosit(k.Source(8))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shadow.DefaultConfig()
	cfg.MaxShadowBytes = 1_000_000

	type run struct {
		res    *Result
		events []obs.Event
	}
	var runs []run
	cold := &obs.Buffer{}
	res, err := prog.Exec("main", WithShadow(cfg), WithTrace(cold))
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	runs = append(runs, run{res, cold.Events()})
	dbg, err := prog.Session(WithShadow(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		warm := &obs.Buffer{}
		res, err := dbg.Exec("main", WithTrace(warm))
		if err != nil {
			t.Fatalf("warm run %d: %v", i, err)
		}
		runs = append(runs, run{res, warm.Events()})
	}

	ref := runs[0]
	evs := ref.events
	if len(evs) < 3 || evs[0].Kind != obs.EvRunStart || evs[0].Precision != 256 {
		t.Fatalf("cold stream must open with run-start at 256 bits: %+v", evs)
	}
	degrades := 0
	for _, e := range evs {
		if e.Kind == obs.EvDegrade {
			degrades++
			if e.Precision != 128 {
				t.Fatalf("degrade event at %d bits, want 128", e.Precision)
			}
		}
	}
	if degrades != 1 {
		t.Fatalf("cold stream has %d degrade events, want 1", degrades)
	}
	if last := evs[len(evs)-1]; last.Kind != obs.EvRunEnd || last.Outcome != "degraded" || last.Precision != 128 {
		t.Fatalf("cold stream must close with run-end degraded at 128: %+v", last)
	}
	if !ref.res.Degraded || ref.res.ShadowPrecision != 128 {
		t.Fatalf("cold result degraded=%v precision=%d, want true/128",
			ref.res.Degraded, ref.res.ShadowPrecision)
	}
	for i, r := range runs[1:] {
		name := []string{"first warm", "second warm"}[i]
		if !reflect.DeepEqual(r.events, ref.events) {
			t.Fatalf("%s event stream differs from cold:\n%+v\nvs\n%+v", name, r.events, ref.events)
		}
		if r.res.Value != ref.res.Value || r.res.Steps != ref.res.Steps || r.res.Output != ref.res.Output {
			t.Fatalf("%s: value/steps/output %d/%d/%q, cold %d/%d/%q", name,
				r.res.Value, r.res.Steps, r.res.Output, ref.res.Value, ref.res.Steps, ref.res.Output)
		}
		if !r.res.Degraded || r.res.ShadowPrecision != 128 || r.res.ShadowOracle != ref.res.ShadowOracle {
			t.Fatalf("%s: degraded=%v precision=%d oracle=%q, want true/128/%q", name,
				r.res.Degraded, r.res.ShadowPrecision, r.res.ShadowOracle, ref.res.ShadowOracle)
		}
		if !reflect.DeepEqual(r.res.Summary.Counts, ref.res.Summary.Counts) {
			t.Fatalf("%s detection counts %v, cold %v", name, r.res.Summary.Counts, ref.res.Summary.Counts)
		}
	}
}
