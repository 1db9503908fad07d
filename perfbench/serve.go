package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	positdebug "positdebug"
	"positdebug/internal/server"
	"positdebug/internal/workloads"
)

// serveRate is the one fixed open-loop rate, set once well under the
// closed-loop capacity measured on a 2-core VM (~280 req/s, NOTES.md) and
// never derived at run time, so a slower server shows as latency, not as a
// lower rate.
const serveRate = 80.0

// serveTailPct is the open-loop tail percentile; the open-loop phase sends
// at least samplesFor(serveTailPct) requests so minTailBeyond lie beyond.
const serveTailPct = 99

// openShare is the share of --seconds spent open loop; the rest measures
// capacity with a closed loop of nproc clients. The two alternate in
// cycles of about serveCycle seconds, so both sample every phase of the
// host's speed over the run rather than one taking the start and the
// other the end.
const (
	openShare  = 0.7
	serveCycle = 2.5
)

// latencyLimit fails an open-loop request answered later than this after
// its scheduled send time. It equals the server's default run timeout.
const latencyLimit = 2 * time.Second

// Request kinds of the serve mix.
const (
	kindHit      = "hit"      // a suite program already in the compile cache
	kindMiss     = "miss"     // a literal-perturbed variant: compile cache miss
	kindBaseline = "baseline" // baseline:true run of a suite program
)

type suiteProg struct {
	Name   string
	Source string // posit source; FP programs are refactored first
}

var (
	suiteOnce  sync.Once
	suiteCache []suiteProg
	suiteErr   error
)

// suitePrograms returns the 32 §5.1 programs with FP ones refactored to
// posits, as a user of the server would submit them.
func suitePrograms() []suiteProg {
	suiteOnce.Do(func() {
		for _, p := range workloads.Suite() {
			src := p.Source
			if p.FromFP {
				var err error
				if src, err = positdebug.RefactorToPosit(src); err != nil {
					suiteErr = fmt.Errorf("%s: %w", p.Name, err)
					return
				}
			}
			suiteCache = append(suiteCache, suiteProg{Name: p.Name, Source: src})
		}
	})
	if suiteErr != nil {
		fatal(suiteErr)
	}
	return suiteCache
}

// mixItem is one request of the serve mix.
type mixItem struct {
	Kind   string `json:"kind"`
	Prog   int    `json:"prog"`
	Source string `json:"source"`
}

func (m mixItem) request() server.RunRequest {
	return server.RunRequest{Source: m.Source, Baseline: m.Kind == kindBaseline}
}

var floatLit = regexp.MustCompile(`\d+\.\d+`)

// perturb returns the source with one float literal's fraction extended by
// six seeded digits: a program the compile cache has not seen, with
// (almost always) the same behaviour.
func perturb(src string, rng *rand.Rand) string {
	locs := floatLit.FindAllStringIndex(src, -1)
	if len(locs) == 0 {
		return src + fmt.Sprintf("\n// variant %06d\n", rng.Intn(1e6))
	}
	at := locs[rng.Intn(len(locs))][1]
	return src[:at] + fmt.Sprintf("%06d", 1+rng.Intn(999999)) + src[at:]
}

// newMix returns the seeded request generator: the three kinds in equal
// shares, each over the 32 suite programs drawn uniformly. Equal shares are
// an assumption, not a measured traffic mix (NOTES.md); the per-kind
// medians printed beside the blended metrics show what each kind costs.
func newMix(seed int64) func() mixItem {
	suite := suitePrograms()
	rng := rand.New(rand.NewSource(seed))
	return func() mixItem {
		k := rng.Intn(3)
		p := rng.Intn(len(suite))
		switch k {
		case 0:
			return mixItem{Kind: kindBaseline, Prog: p, Source: suite[p].Source}
		case 1:
			return mixItem{Kind: kindMiss, Prog: p, Source: perturb(suite[p].Source, rng)}
		default:
			return mixItem{Kind: kindHit, Prog: p, Source: suite[p].Source}
		}
	}
}

// sample is one open-loop request: when it was due, when the generator got
// it onto a connection, and when the answer arrived.
type sample struct {
	Due, Sent, Done time.Time
	OK              bool
}

func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }
func (s sample) lag() time.Duration     { return s.Sent.Sub(s.Due) }

// openLoop sends n requests at a fixed rate from at most workers
// goroutines, each request timed from its scheduled send time: a stall
// delays every request queued behind it, and the delay is counted.
func openLoop(rate float64, n, workers int, do func(i int) bool) []sample {
	samples := make([]sample, n)
	// Sized to the number of sends, so the schedule never blocks on a
	// stalled server: late requests wait here and their wait is measured.
	jobs := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				samples[i].Sent = time.Now()
				samples[i].OK = do(i)
				samples[i].Done = time.Now()
			}
		}()
	}
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		samples[i].Due = due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return samples
}

// closedLoop runs clients goroutines, each sending its next request as soon
// as the previous one is answered, until d has passed; it returns the
// number of requests answered correctly and the elapsed time.
func closedLoop(clients int, d time.Duration, do func() bool) (int, time.Duration) {
	var ok atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if do() {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(ok.Load()), time.Since(start)
}

// serveState is one running in-process server on loopback.
type serveState struct {
	url    string
	client *http.Client
	hs     *http.Server
	done   chan error
}

func (s *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close() // the forced close is the fallback; its error adds nothing
	}
	<-s.done
	s.client.CloseIdleConnections()
}

// startServer starts a default-configured server on a loopback port; wrap,
// when set, decorates its handler (the traced run's timing wrapper).
func startServer(wrap func(http.Handler) http.Handler) (*serveState, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := server.New(server.Config{}).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	conns := runtime.NumCPU()
	st := &serveState{
		url: "http://" + l.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		hs:   &http.Server{Handler: h},
		done: make(chan error, 1),
	}
	go func() { st.done <- st.hs.Serve(l) }()
	return st, nil
}

// post sends one /run request and decodes the answer.
func (s *serveState) post(rr server.RunRequest, seq int) (server.RunResponse, int, error) {
	var resp server.RunResponse
	body, err := json.Marshal(rr)
	if err != nil {
		return resp, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, s.url+"/run", bytes.NewReader(body))
	if err != nil {
		return resp, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	hr, err := s.client.Do(req)
	if err != nil {
		return resp, 0, err
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		return resp, hr.StatusCode, err
	}
	if hr.StatusCode != http.StatusOK {
		return resp, hr.StatusCode, fmt.Errorf("status %d: %s", hr.StatusCode, bytes.TrimSpace(raw))
	}
	return resp, hr.StatusCode, json.Unmarshal(raw, &resp)
}

// seqHeader carries the benchmark's request number so a traced run can pair
// client and handler times.
const seqHeader = "X-Bench-Seq"

// setupServe starts the server and warms it as a user's long-running
// server would be: every suite program compiled and run once of each kind.
func setupServe(wrap func(http.Handler) http.Handler) (*serveState, error) {
	st, err := startServer(wrap)
	if err != nil {
		return nil, err
	}
	for i, p := range suitePrograms() {
		for _, baseline := range []bool{false, true} {
			if _, _, err := st.post(server.RunRequest{Source: p.Source, Baseline: baseline}, -1-i); err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up %s: %w", p.Name, err)
			}
		}
	}
	return st, nil
}

// missAnswer is a variant's answer, kept until checkMisses has an
// in-process reference for it.
type missAnswer struct {
	seq  int
	src  string
	resp server.RunResponse
}

// serveOutcome accumulates answers for checking.
type serveOutcome struct {
	mu       sync.Mutex
	e        *e2e
	misses   []missAnswer
	cached   int
	answered int
	shed     int
}

// check validates one answer: suite programs against expected.json,
// variants later against an in-process reference.
// A variant's answer is only kept here and reported correct; checkMisses
// decides it after the timed phase.
func (o *serveOutcome) check(m mixItem, seq int, resp server.RunResponse, code int, err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	name := suitePrograms()[m.Prog].Name
	if err != nil {
		if code == http.StatusTooManyRequests {
			o.shed++
		}
		o.e.fail("%s %s: %v", m.Kind, name, err)
		return false
	}
	o.answered++
	if resp.Cached {
		o.cached++
	}
	want := expected.Suite[name]
	switch m.Kind {
	case kindMiss:
		o.misses = append(o.misses, missAnswer{seq, m.Source, resp})
		return true
	case kindBaseline:
		want.Steps, want.Detections = want.BaseSteps, nil
	}
	v, perr := strconv.ParseUint(resp.Value, 0, 64)
	if perr != nil {
		o.e.fail("%s %s: value %q: %v", m.Kind, name, resp.Value, perr)
		return false
	}
	if err := checkRun(want, v, resp.Steps, resp.Detections); err != nil {
		o.e.fail("%s %s: %v", m.Kind, name, err)
		return false
	}
	return true
}

// checkMisses compares every variant's answer with an in-process run of
// the same source: the same value and step count. It returns the request
// numbers of the answers that differ.
func (o *serveOutcome) checkMisses() []int {
	type ref struct {
		value string
		steps int64
		err   error
	}
	refs := map[string]ref{}
	var bad []int
	for _, a := range o.misses {
		r, ok := refs[a.src]
		if !ok {
			p, err := positdebug.Compile(a.src)
			if err == nil {
				var res *positdebug.Result
				if res, err = p.Exec("main"); err == nil {
					r = ref{value: hexBits(res.Value), steps: res.Steps}
				}
			}
			r.err = err
			refs[a.src] = r
		}
		switch {
		case r.err != nil:
			o.e.fail("miss reference: %v", r.err)
		case a.resp.Value != r.value || a.resp.Steps != r.steps:
			o.e.fail("miss: served %s/%d steps, in-process %s/%d", a.resp.Value, a.resp.Steps, r.value, r.steps)
		default:
			continue
		}
		bad = append(bad, a.seq)
	}
	return bad
}

// runServe is the serve workload: an in-process server on loopback, driven
// open loop at serveRate with the seeded mix, then closed loop with nproc
// clients to measure capacity.
func runServe(o runOpts) (*e2e, error) {
	tr, seconds := o.tr, o.seconds
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = handlerTimer(tr)
	}
	st, closeSt, setupS, err := timedSetup(o.setupReps(), func() (*serveState, func(), error) {
		s, err := setupServe(wrap)
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
	out := &serveOutcome{e: e}
	mix := newMix(o.seed)
	n := int(serveRate * seconds * openShare)
	if min := samplesFor(serveTailPct); n < min && !o.quick {
		n = min
	}
	items := make([]mixItem, n)
	for i := range items {
		items[i] = mix()
	}
	workers := runtime.NumCPU()
	send := func(m mixItem, seq int) bool {
		sp := tr.begin("client.request", seq)
		resp, code, err := st.post(m.request(), seq)
		tr.end(sp)
		return out.check(m, seq, resp, code, err)
	}

	cycles := max(1, int(math.Round(seconds/serveCycle)))
	perCycle := (n + cycles - 1) / cycles
	closedPer := time.Duration(seconds * (1 - openShare) / float64(cycles) * float64(time.Second))
	var samples []sample
	var mu sync.Mutex
	seq := n
	closedOK, closedDur := 0, time.Duration(0)
	heap := startHeapSampler(5 * time.Millisecond)
	for lo := 0; lo < n; lo += perCycle {
		hi := min(lo+perCycle, n)
		samples = append(samples, openLoop(serveRate, hi-lo, workers, func(i int) bool { return send(items[lo+i], lo+i) })...)
		ok, d := closedLoop(workers, closedPer, func() bool {
			mu.Lock()
			m, i := mix(), seq
			seq++
			mu.Unlock()
			return send(m, i)
		})
		closedOK += ok
		closedDur += d
	}
	e.PeakHeapMB = heap.stopMiB()
	for _, seq := range out.checkMisses() {
		if seq >= n { // a closed-loop answer counted as correct
			closedOK--
		}
	}

	var lat, lag []float64
	kindLat := map[string][]float64{}
	for i, s := range samples {
		if s.OK && s.latency() > latencyLimit {
			e.fail("request answered %v after its scheduled send time (limit %v)", s.latency(), latencyLimit)
		}
		lat = append(lat, ms(s.latency()))
		lag = append(lag, ms(s.lag()))
		kindLat[items[i].Kind] = append(kindLat[items[i].Kind], ms(s.latency()))
	}
	e.Attempted = seq
	e.P50MS = median(lat)
	e.TailMS = percentile(lat, serveTailPct)
	e.TailPct = serveTailPct
	e.Samples = len(lat)
	e.Throughput = float64(closedOK) / closedDur.Seconds()
	e.named("serve.p50_ms", e.P50MS, "ms")
	e.named(fmt.Sprintf("serve.tail_ms (p%d)", serveTailPct), e.TailMS, "ms")
	for _, k := range []string{kindHit, kindMiss, kindBaseline} {
		e.named("serve.p50_ms."+k, median(kindLat[k]), "ms")
	}
	e.named("serve.capacity_rps", e.Throughput, "1/s")
	e.named("serve.open_loop_rate_rps", serveRate, "1/s")
	e.layer("gen.lag_ms", percentile(lag, 99), "ms")
	e.layer("server.cache_hit_ratio", float64(out.cached)/float64(max(out.answered, 1)), "ratio")
	e.layer("server.shed", float64(out.shed), "count")
	return e, nil
}

// handlerTimer wraps the server's handler and records a server.handler span
// per request, keyed by the benchmark's request number.
func handlerTimer(tr *tracer) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			seq, _ := strconv.Atoi(r.Header.Get(seqHeader)) // 0 when absent
			t0 := time.Now()
			h.ServeHTTP(w, r)
			tr.record("server.handler", seq, t0, time.Since(t0))
		})
	}
}
