// Command perfbench is the repository benchmark. One invocation runs one
// workload (kernels, serve or campaign) for a given seed and run length,
// checks every output against a reference, and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics and the layer ladder
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 25 --trace 0
//
// NOTES.md in this directory explains the workloads, the metrics and the
// host-noise measurements behind the run lengths.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"positdebug/internal/faultinject"
)

// setupReps is how many times each workload's set-up is repeated; setup_s
// is the median, which a single slow start (page faults, a neighbour's
// burst) cannot move.
const setupReps = 5

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2e is one workload's end-to-end outcome: the five metrics every
// workload reports, the failure count, and the same figures under their
// workload-specific names (Named), printed for people.
type e2e struct {
	SetupS     float64
	PeakHeapMB float64
	Throughput float64
	P50MS      float64
	TailMS     float64
	TailPct    float64
	Samples    int
	Attempted  int
	Failed     int
	Mismatches []string
	Named      []namedValue
	// Layer holds per-layer figures a pass measures on the side (cache hit
	// ratio, fabric counters); the traced run reports them.
	Layer map[string]metric
	// ShardReqs are the shards the coordinator sent for a campaign pass's
	// first campaign; the traced run replays them in-process.
	ShardReqs []faultinject.ShardRequest
}

type namedValue struct {
	Name  string
	Value float64
	Unit  string
}

func (e *e2e) fail(format string, args ...any) {
	e.Failed++
	if len(e.Mismatches) < 20 {
		e.Mismatches = append(e.Mismatches, fmt.Sprintf(format, args...))
	}
}

func (e *e2e) named(name string, v float64, unit string) {
	e.Named = append(e.Named, namedValue{name, v, unit})
}

func (e *e2e) layer(name string, v float64, unit string) {
	if e.Layer == nil {
		e.Layer = map[string]metric{}
	}
	e.Layer[name] = metric{v, unit}
}

// runOpts parameterizes one pass of a workload. tr is nil on untraced
// passes; a traced pass records spans around each call into the program.
// quick drops the minimum sample counts the tail percentiles need and sets
// up once instead of setupReps times, for the short passes of a traced run
// that report neither tail nor set-up time.
type runOpts struct {
	seed    int64
	seconds float64
	tr      *tracer
	quick   bool
}

// setupReps is how many times the pass sets up.
func (o runOpts) setupReps() int {
	if o.quick {
		return 1
	}
	return setupReps
}

// workloadRunners maps a workload name to its runner.
var workloadRunners = map[string]func(runOpts) (*e2e, error){
	"kernels":  runKernels,
	"serve":    runServe,
	"campaign": runCampaign,
}

func main() {
	workload := flag.String("workload", "", "kernels, serve or campaign")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and the layer ladder")
	writeExpected := flag.Bool("write-expected", false, "print a regenerated expected.json and exit")
	flag.Parse()

	if *writeExpected {
		if err := writeExpectedFile(); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloadRunners[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want kernels, serve or campaign)", *workload))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	if err := loadExpected(); err != nil {
		fatal(err)
	}
	printEnv(*workload, *seed, *seconds, *trace)

	var res result
	if *trace == 0 {
		e, err := run(runOpts{seed: *seed, seconds: *seconds})
		if err != nil {
			fatal(err)
		}
		printE2E(*workload, e)
		res = result{Correct: e.Failed == 0, Attempted: e.Attempted, Failed: e.Failed, Metrics: e2eMetrics(e)}
	} else {
		m, att, failed, err := runTraced(*workload, *seed, *seconds, run)
		if err != nil {
			fatal(err)
		}
		res = result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: m}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// e2eMetrics is the --trace 0 metric set: the same five names on every
// workload, so BENCHMARK.json can bound each one.
func e2eMetrics(e *e2e) map[string]metric {
	return map[string]metric{
		"setup_s":      {e.SetupS, "s"},
		"peak_heap_mb": {e.PeakHeapMB, "MiB"},
		"throughput":   {e.Throughput, "1/s"},
		"p50_ms":       {e.P50MS, "ms"},
		"tail_ms":      {e.TailMS, "ms"},
	}
}

func printE2E(workload string, e *e2e) {
	fmt.Printf("%s: %d attempted, %d failed\n", workload, e.Attempted, e.Failed)
	for _, m := range e.Mismatches {
		fmt.Printf("  MISMATCH %s\n", m)
	}
	fmt.Printf("  %-34s %12.4f %s\n", workload+".setup_s", e.SetupS, "s")
	fmt.Printf("  %-34s %12.4f %s\n", workload+".peak_heap_mb", e.PeakHeapMB, "MiB")
	for _, n := range e.Named {
		fmt.Printf("  %-34s %12.4f %s\n", n.Name, n.Value, n.Unit)
	}
	for _, k := range sortedKeys(e.Layer) {
		fmt.Printf("  %-34s %12.4f %s\n", k, e.Layer[k].Value, e.Layer[k].Unit)
	}
	fmt.Printf("  tail_ms is p%g over %d samples (%d beyond it)\n",
		e.TailPct, e.Samples, int(float64(e.Samples)*(100-e.TailPct)/100))
}

// env is the environment stamp printed before the result.
type env struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	ServeRate  float64 `json:"serve_rate_rps"`
}

func printEnv(workload string, seed int64, seconds float64, trace int) {
	e := env{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), ServeRate: serveRate,
	}
	b, _ := json.Marshal(e) // strings and numbers always marshal
	fmt.Printf("env %s\n", b)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timedSetup runs setup reps times, closing all but the last instance, and
// returns that instance with the median set-up time.
func timedSetup[T any](reps int, setup func() (T, func(), error)) (T, func(), float64, error) {
	var (
		st      T
		release func()
		times   []float64
	)
	for i := 0; i < reps; i++ {
		if release != nil {
			release()
		}
		t0 := time.Now()
		s, r, err := setup()
		if err != nil {
			return st, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		st, release = s, r
	}
	return st, release, median(times), nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
