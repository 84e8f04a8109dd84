// Command perfbench is the repository's benchmark: one program that runs
// the simulator grid, the real fork-join kernels and the kernel service,
// checks every output, and prints the end-to-end metrics (untraced run) or
// the per-layer metrics with a span dump and a self-time table (traced run).
//
//	perfbench --workload sim-grid --seed 1 --seconds 30 --trace 0
//
// Every run exercises all three subsystems, so every run reports every
// metric.  A run repeats rounds until its time is up; a round runs the
// named workload's subsystem at full scale and the other two at a smaller
// probe scale, so every metric samples the whole run.  The last line of
// standard output is one JSON object {correct, attempted, failed, metrics}.
// See README.md for the workloads, metrics and pacing method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/algos/registry"
)

// defaultSeed is the seed simgrid_golden.json was recorded at.
const defaultSeed = 1

// Workloads; each names the subsystem that runs at full scale.
const (
	wSim   = "sim-grid"
	wReal  = "real-kernels"
	wServe = "serve-mix"
)

// setupReps is how many times a run sets up, reporting the median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations attempted and failed across the run's
// goroutines, and logs each failure.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	w                 io.Writer
}

func (t *tally) op(layer string, err error) {
	failed := 0
	if err != nil {
		failed = 1
	}
	t.ops(layer, 1, failed, err)
}

// ops records n operations of which failed failed; err describes one.
func (t *tally) ops(layer string, n, failed int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
	t.failed += failed
	if err != nil {
		fmt.Fprintf(t.w, "FAIL %s: %v\n", layer, err)
	}
}

func main() {
	workload := flag.String("workload", wSim, "workload: sim-grid, real-kernels or serve-mix")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 30, "measuring time of one run")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics, span dump, self-time table")
	golden := flag.String("write-golden", "", "write the sim cells' counts at the default seed to this file and exit")
	flag.Parse()

	if *golden != "" {
		if err := writeSimGolden(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	plan, ok := plans[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	b := &benchRun{workload: *workload, plan: plan, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		t: &tally{w: os.Stdout}}
	res, err := b.run(*traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// roundPlan is what one round runs of each subsystem.
type roundPlan struct {
	order      []string // the subsystems in running order, the workload's own first
	simFull    bool     // the sim-grid pass; otherwise the probe pass
	realPasses int      // real-kernels passes
	servePairs int      // /batch segments, each followed by an /invoke step
	minRounds  int      // an untraced run makes at least this many rounds
}

// plans gives each workload's round.  The named subsystem gets most of
// the round; the probes are sized so that a 30-second run still gives
// every metric enough samples: at least 3 sim passes, 100 real passes (so
// the p90 has 10 beyond it), 1,000 /invoke requests and 1 s of /batch.
var plans = map[string]roundPlan{
	wSim: {order: []string{wSim, wReal, wServe}, simFull: true,
		realPasses: 34, servePairs: 5, minRounds: 3},
	wReal: {order: []string{wReal, wSim, wServe},
		realPasses: 30, servePairs: 3, minRounds: 4},
	wServe: {order: []string{wServe, wSim, wReal},
		realPasses: 15, servePairs: 10, minRounds: 4},
}

// benchRun is one invocation of the benchmark.
type benchRun struct {
	workload string
	plan     roundPlan
	seed     uint64
	budget   time.Duration
	t        *tally

	golden simGolden
	real   *realBench
	srv    *serveBench
}

// setup loads the sim table, starts and warms the real-kernel pool, and
// builds the serve mix and starts the service.  It runs setupReps times
// and keeps the last instance; setup_s is the median.
func (b *benchRun) setup() (float64, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		if b.srv != nil {
			b.srv.close()
		}
		t0 := time.Now()
		var err error
		if b.golden, err = loadSimGolden(); err != nil {
			return 0, err
		}
		if b.real, err = newRealBench(b.seed, b.t); err != nil {
			return 0, err
		}
		if b.srv, err = newServeBench(b.seed, b.t); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// phases is what a run's rounds measured, pooled by subsystem.
type phases struct {
	sim   simOut
	real  realOut
	serve serveOut
}

// peaks records the process's peak resident set over each of a kind of
// item (a sim pass, a real pass, a serve slice): the kernel's peak count
// restarts when the item starts, so a collection that comes late in one
// item moves that item's figure only.
type peaks struct {
	mib []float64
	err error // the first failure to read the peak
}

func (p *peaks) measure(f func()) {
	// Where procfs refuses the restart, the count runs on from the run's
	// start: still a peak, only less robust.
	_ = resetPeakRSS()
	f()
	v, err := peakRSSMiB()
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return
	}
	p.mib = append(p.mib, v)
}

func (b *benchRun) run(traced bool) (*result, error) {
	setupS, err := b.setup()
	if err != nil {
		return nil, err
	}
	defer b.srv.close()
	fmt.Printf("perfbench: workload=%s seed=%d budget=%s trace=%v GOMAXPROCS=%d NumCPU=%d\n",
		b.workload, b.seed, b.budget, traced, runtime.GOMAXPROCS(0), runtime.NumCPU())

	steal := stealShare()
	defer func() {
		fmt.Printf("host: %.1f%% of the CPU time this machine wanted was stolen by its host during the run\n", steal())
	}()

	if !traced {
		var ph phases
		b.rounds(&ph, time.Now().Add(b.budget), b.plan.minRounds, nil)
		ph.serve.report()
		ph.logSteal()
		m := b.e2e(ph, setupS)
		printMetrics(os.Stdout, m)
		return b.result(m), nil
	}

	// Traced run: rounds untraced and traced for half the time each, then
	// the layer baselines and the serve extras (fixed-rate steps, the
	// max-rate search, in-process Submit, kernel run times).
	rec := newRecorder()
	var untraced, tr phases
	b.rounds(&untraced, time.Now().Add(b.budget/2), 1, nil)
	b.rounds(&tr, time.Now().Add(b.budget/2), 1, rec)
	base := measureBaselines(b.real.pool, rec)
	ex := b.serveExtras(rec)
	untraced.serve.report()
	untraced.logSteal()

	mu, mt := b.e2e(untraced, setupS), b.e2e(tr, setupS)
	fmt.Println("\ntracing overhead (end-to-end metrics, traced rounds against untraced rounds):")
	fmt.Printf("%-24s %14s %14s %9s\n", "metric", "untraced", "traced", "change")
	for _, d := range e2eDefs {
		u, t := mu[d.name].Value, mt[d.name].Value
		fmt.Printf("%-24s %14.4f %14.4f %8.1f%%\n", d.name, u, t, 100*(t-u)/u)
	}

	layers := layerMetrics(untraced, tr, base, ex)
	fmt.Println("\nper-layer metrics:")
	printMetrics(os.Stdout, layers)
	fmt.Println("\nself time per span (duration minus child spans):")
	rec.printSelfTimes(os.Stdout)
	path := filepath.Join(buildDir(), "perfbench-spans", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := rec.dump(path); err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	fmt.Printf("span dump: %s (%d spans)\n", path, len(rec.spans))
	return b.result(layers), nil
}

// buildDir is where build outputs and the span dump go.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func (b *benchRun) result(m map[string]metric) *result {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	return &result{Correct: b.t.failed == 0, Attempted: b.t.attempted, Failed: b.t.failed, Metrics: m}
}

// rounds repeats rounds until the deadline: always minRounds, then while
// one more (as long as the last) still ends by the deadline.
func (b *benchRun) rounds(ph *phases, deadline time.Time, minRounds int, rec *recorder) {
	var last time.Duration
	for n := 0; n < minRounds || time.Now().Add(last).Before(deadline); n++ {
		t0 := time.Now()
		b.round(ph, rec)
		last = time.Since(t0)
	}
}

// round runs the workload's own subsystem, then the other two, each
// slice from a collected heap so that what one leaves behind does not
// decide the next one's garbage collections.
func (b *benchRun) round(ph *phases, rec *recorder) {
	for _, sub := range b.plan.order {
		runtime.GC()
		switch sub {
		case wSim:
			b.simSlice(&ph.sim, rec)
		case wReal:
			b.realSlice(&ph.real, rec)
		case wServe:
			b.serveSlice(&ph.serve, rec)
		}
	}
}

// --- sim ---------------------------------------------------------------

type simOut struct {
	passes []simPass
	rss    peaks   // per pass
	gc     goStats // runtime delta over the sim slices
}

// simSlice runs one pass: the sim-grid cell list at full scale, the probe
// list otherwise.
func (b *benchRun) simSlice(out *simOut, rec *recorder) {
	cells := simProbeCells()
	if b.plan.simFull {
		cells = simGridCells()
	}
	g0 := readGoStats()
	steal := stealShare()
	var p simPass
	out.rss.measure(func() { p = runSimPass(cells, b.seed, b.golden, rec, b.t) })
	p.steal = steal()
	out.passes = append(out.passes, p)
	out.gc.add(readGoStats().sub(g0))
}

// --- real --------------------------------------------------------------

type realOut struct {
	passes []realPass
	rss    peaks // per pass
	gc     goStats
}

func (b *benchRun) realSlice(out *realOut, rec *recorder) {
	g0 := readGoStats()
	for i := 0; i < b.plan.realPasses; i++ {
		steal := stealShare()
		var p realPass
		out.rss.measure(func() { p = b.real.pass(rec, b.t) })
		p.steal = steal()
		out.passes = append(out.passes, p)
	}
	out.gc.add(readGoStats().sub(g0))
}

// --- serve -------------------------------------------------------------

const (
	invokeRate  = 500                    // req/s of the rounds' open-loop /invoke steps
	stepCount   = 100                    // /invoke requests per step of a round
	segmentTime = 100 * time.Millisecond // closed-loop /batch time per segment of a round
	searchCount = 1000                   // requests per step of the max-rate search
	maxSearch   = 8                      // probes of the max-rate search; 800→1600 then 5% takes 5
)

// serveOut pools the rounds' serve slices.  A slice alternates closed-loop
// /batch segments and open-loop /invoke steps at 500 req/s, each short
// enough to have a host steal share of its own.  Every /invoke step
// follows a /batch segment so that every step starts from the same
// batcher state: the adaptive wait keeps the gap estimate the last
// coalescing traffic left, so lone /invoke requests after /batch windows
// flush at once (p50 about 0.7 ms on a 2-vCPU VM), but once two of them
// share one batch assembly the estimate becomes their gap and the
// requests after it wait (p50 about 1.2 ms).  Short steps make that flip
// a per-step event whose share settles over the run's many steps.
type serveOut struct {
	invoke     []stepResult
	batch      []batchResult
	rss        peaks // per slice
	snapInvoke serveDelta
	snapBatch  serveDelta
	gc         goStats
	requests   int
}

func (b *benchRun) serveSlice(out *serveOut, rec *recorder) {
	s := b.srv
	s.trace.Store(rec)
	defer s.trace.Store(nil)
	g0 := readGoStats()
	out.rss.measure(func() { b.servePairs(out) })
	out.gc.add(readGoStats().sub(g0))
}

// servePairs runs the slice's /batch segments, each followed by an
// /invoke step.
func (b *benchRun) servePairs(out *serveOut) {
	s := b.srv
	for i := 0; i < b.plan.servePairs; i++ {
		before := s.snapshot()
		steal := stealShare()
		seg := s.batchLoop(time.Now().Add(segmentTime), 2, b.t)
		seg.steal = steal()
		out.batch = append(out.batch, seg)
		mid := s.snapshot()
		out.snapBatch.add(deltaOf(before, mid))

		steal = stealShare()
		step := s.step(invokeRate, stepCount, s.invoke, b.t)
		step.steal = steal()
		out.invoke = append(out.invoke, step)
		out.snapInvoke.add(deltaOf(mid, s.snapshot()))
		out.requests += seg.ok + seg.failed + stepCount
	}
}

// pooled returns every latency and lateness of the 500 req/s steps.
func (o serveOut) pooled() (lat, late []float64) {
	for _, r := range o.invoke {
		lat = append(lat, r.lat...)
		late = append(late, r.late...)
	}
	return lat, late
}

// report logs the 500 req/s latency and marks a latency quantile invalid
// when the generator's own lateness at that quantile is more than
// lateShare of it: the figure would then measure the generator.
func (o serveOut) report() {
	lat, late := o.pooled()
	fmt.Printf("serve: /invoke %d req/s over %d steps, n=%d: p50 %.3f ms  p99 %.3f ms  late p50 %.0f µs  p99 %.0f µs\n",
		invokeRate, len(o.invoke), len(lat), quantile(lat, 0.5)/1e3, quantile(lat, 0.99)/1e3,
		quantile(late, 0.5), quantile(late, 0.99))
	for _, q := range []struct {
		metric string
		q      float64
	}{{"invoke_p50_ms", 0.5}, {"invoke_p99_ms", 0.99}} {
		if l, d := quantile(late, q.q), quantile(lat, q.q); l > lateShare*d {
			fmt.Printf("serve: INVALID %s — generator lateness at that quantile is %.0f µs, more than %.0f%% of the %.0f µs latency: "+
				"the machine stalled this process, and the figure is the machine's, not the service's\n",
				q.metric, l, 100*lateShare, d)
		}
	}
}

// serveExtras is what the traced run measures of the service beyond the
// rounds: latency at fixed rates, the max-rate search, in-process Submit
// and the mix kernels' own run times.
type serveExtras struct {
	steps      []stepResult
	maxRPS     float64
	submit     stepResult // in-process Submit at 500 req/s
	runUS      map[string]float64
	validateUS float64
	service    serveSnapshot // /metrics at the end
}

func (b *benchRun) serveExtras(rec *recorder) serveExtras {
	s := b.srv
	var ex serveExtras
	step := func(rate float64, count int) stepResult {
		r := s.step(rate, count, s.invoke, b.t)
		ex.steps = append(ex.steps, r)
		return r
	}
	// The fixed rates seed the search; like a search probe, a fixed rate
	// that fails is run once more.
	known := map[float64]bool{}
	for _, rate := range []float64{250, 500, 800} {
		known[rate] = step(rate, searchCount).meets() || step(rate, searchCount).meets()
	}
	ex.maxRPS = maxRate(known, func(rate float64) bool {
		// Near saturation the generator runs late for want of a CPU, and
		// that lateness is charged: latency runs from the due time.
		// Below 500 req/s (only when the fixed rates fail) a step lasts
		// two seconds.
		return step(rate, min(searchCount, int(2*rate))).meets()
	})
	for _, r := range ex.steps {
		fmt.Printf("serve: /invoke %5.0f req/s  n=%5d  p50 %7.3f ms  p99 %7.3f ms  late p99 %5.0f µs  failed %d  backlog %v\n",
			r.rate, len(r.lat), r.p(0.5)/1e3, r.p(0.99)/1e3, quantile(r.late, 0.99), r.failed, r.backlog)
	}

	s.trace.Store(rec)
	ex.submit = s.step(invokeRate, searchCount, s.submit, b.t)
	ex.runUS, ex.validateUS = s.kernelRunUS(b.real.pool, 5)
	s.trace.Store(nil)
	if snap, err := s.metricsOverHTTP(); err != nil {
		b.t.op("serve", err)
	} else {
		ex.service = serveSnapshot{p50us: float64(snap.LatencyP50NS) / 1e3, p99us: float64(snap.LatencyP99NS) / 1e3}
	}
	return ex
}

// maxRate finds the highest offered /invoke rate that meets the limit
// (p99 ≤ 10 ms, no failures, no backlog) to within 5%: it starts from the
// fixed rates already run, halves below them if none met the limit or
// doubles past the best passing rate until one fails, then bisects
// geometrically.
func maxRate(known map[float64]bool, probe func(rate float64) bool) float64 {
	// At most maxSearch probes: the bracket is then reported as reached.
	// A rate that fails is probed once more, since a stall of the machine
	// passes and saturation does not.
	budget := maxSearch
	meets := func(rate float64) bool {
		for try := 0; try < 2 && budget > 0; try++ {
			budget--
			if probe(rate) {
				return true
			}
		}
		return false
	}
	lo, hi := 0.0, 0.0
	for rate, ok := range known {
		if ok {
			lo = max(lo, rate)
		}
	}
	for rate, ok := range known {
		if !ok && rate > lo && (hi == 0 || rate < hi) {
			hi = rate
		}
	}
	for lo == 0 {
		// Nothing known meets the limit: halve below the lowest failing rate.
		r := hi / 2
		if r < 25 || budget == 0 {
			return 0
		}
		if meets(r) {
			lo = r
		} else {
			hi = r
		}
	}
	for hi == 0 {
		r := 2 * lo
		if r > 64000 || budget == 0 {
			return lo
		}
		if meets(r) {
			lo = r
		} else {
			hi = r
		}
	}
	for hi/lo > 1.05 && budget > 0 {
		mid := math.Sqrt(lo * hi)
		if meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// --- metrics -------------------------------------------------------------

// e2eDef is one end-to-end metric.
type e2eDef struct{ name, unit string }

var e2eDefs = []e2eDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"sim_pass_s", "s"},
	{"sim_maccess_per_s", "M/s"},
	{"kernels_pass_ms_p50", "ms"},
	{"kernels_pass_ms_p90", "ms"},
	{"kernels_allocs_per_pass", "count"},
	{"batch_req_per_s", "req/s"},
	{"batch_ttfr_ms_p50", "ms"},
	{"batch_ttfr_ms_p90", "ms"},
}

// keepCalm keeps the items that ran with at most the median host steal
// among their kind in the run: at least half of them.  Time the host
// stole from this virtual machine is not the program's, and a pass or
// step that lost much of it measures the host.  The choice rests on the
// host's steal counter alone, never on a measured figure.
func keepCalm[T any](xs []T, steal func(T) float64) []T {
	ss := make([]float64, len(xs))
	for i, x := range xs {
		ss[i] = steal(x)
	}
	m := median(ss)
	var out []T
	for i, x := range xs {
		if ss[i] <= m {
			out = append(out, x)
		}
	}
	return out
}

// calm keeps the calm passes, steps and segments of every subsystem.
func (ph phases) calm() phases {
	ph.sim.passes = keepCalm(ph.sim.passes, func(p simPass) float64 { return p.steal })
	ph.real.passes = keepCalm(ph.real.passes, func(p realPass) float64 { return p.steal })
	ph.serve.invoke = keepCalm(ph.serve.invoke, func(r stepResult) float64 { return r.steal })
	ph.serve.batch = keepCalm(ph.serve.batch, func(r batchResult) float64 { return r.steal })
	return ph
}

// logSteal prints the host steal share of each kind of item: median and
// largest.
func (ph phases) logSteal() {
	f := func(xs []float64) string { return fmt.Sprintf("%.0f/%.0f", median(xs), quantile(xs, 1)) }
	var sim, real, inv, bat []float64
	for _, p := range ph.sim.passes {
		sim = append(sim, p.steal)
	}
	for _, p := range ph.real.passes {
		real = append(real, p.steal)
	}
	for _, r := range ph.serve.invoke {
		inv = append(inv, r.steal)
	}
	for _, r := range ph.serve.batch {
		bat = append(bat, r.steal)
	}
	fmt.Printf("host steal %%, median/max (end-to-end figures use the items at or below the median): "+
		"sim passes %s | real passes %s | /invoke steps %s | /batch segments %s\n", f(sim), f(real), f(inv), f(bat))
}

// e2e computes the end-to-end metrics from the calm items.
func (b *benchRun) e2e(all phases, setupS float64) map[string]metric {
	ph := all.calm()
	v := map[string]float64{"setup_s": setupS}
	for _, p := range []peaks{ph.sim.rss, ph.real.rss, ph.serve.rss} {
		if p.err != nil {
			b.t.op("rss", p.err)
		}
		v["peak_rss_mb"] = max(v["peak_rss_mb"], median(p.mib))
	}

	var passS []float64
	var acc float64
	var wall time.Duration
	for _, p := range ph.sim.passes {
		passS = append(passS, p.wall.Seconds())
		acc += float64(p.accesses)
		wall += p.wall
	}
	v["sim_pass_s"] = median(passS)
	v["sim_maccess_per_s"] = acc / wall.Seconds() / 1e6

	var passMS, allocs []float64
	for _, p := range ph.real.passes {
		passMS = append(passMS, ms(p.wall))
		allocs = append(allocs, float64(p.allocs))
	}
	v["kernels_pass_ms_p50"] = median(passMS)
	v["kernels_pass_ms_p90"] = quantile(passMS, 0.9)
	v["kernels_allocs_per_pass"] = median(allocs)

	var ok float64
	var bwall time.Duration
	var ttfr []float64
	for _, r := range ph.serve.batch {
		ok += float64(r.ok)
		bwall += r.wall
		ttfr = append(ttfr, r.ttfr...)
	}
	v["batch_req_per_s"] = ok / bwall.Seconds()
	v["batch_ttfr_ms_p50"] = quantile(ttfr, 0.5)
	v["batch_ttfr_ms_p90"] = quantile(ttfr, 0.9)

	m := map[string]metric{}
	for _, d := range e2eDefs {
		m[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	return m
}

// layerMetrics derives the per-layer metrics: times, allocation counts
// and exact counts from the traced rounds, latency figures from the
// untraced rounds (spans on the request path would shift them), and the
// layer baselines and serve extras.
func layerMetrics(untraced, ph phases, base baselines, ex serveExtras) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	// sim: per-pass medians of the layer-call times, per-access Go costs,
	// and one pass's exact counts.
	sim := ph.sim.passes
	med := func(f func(simPass) float64) float64 {
		xs := make([]float64, len(sim))
		for i, p := range sim {
			xs[i] = f(p)
		}
		return median(xs)
	}
	put("core.run_ms", "ms", med(func(p simPass) float64 { return ms(p.layers.run) }))
	put("fj.sim_run_ms", "ms", med(func(p simPass) float64 { return ms(p.layers.runFJ) }))
	put("registry.sim_build_ms", "ms", med(func(p simPass) float64 { return ms(p.layers.build) }))
	put("core.run_traced_ms", "ms", med(func(p simPass) float64 { return ms(p.layers.runTraced) }))
	put("trace.measure_ms", "ms", med(func(p simPass) float64 { return ms(p.layers.measure) }))
	put("go.sim_mallocs_per_kaccess", "count", med(func(p simPass) float64 { return 1e3 * p.layers.alloc.mallocs / float64(p.accesses) }))
	put("go.sim_bytes_per_access", "B", med(func(p simPass) float64 { return p.layers.alloc.bytes / float64(p.accesses) }))
	put("go.sim_gc_cpu_share", "%", ph.sim.gc.gcShare())
	put("cache.touch_ns", "ns", base.touchNS)
	put("cache.insert_evict_ns", "ns", base.insertNS)
	put("machine.read_hit_ns", "ns", base.readHitNS)
	put("machine.read_stream_ns", "ns", base.readStreamNS)
	tot := sim[0].totals
	put("machine.accesses", "count", float64(tot.Reads+tot.Writes))
	put("machine.hits", "count", float64(tot.Hits))
	put("machine.cold_misses", "count", float64(tot.ColdMisses))
	put("machine.block_misses", "count", float64(tot.BlockMisses))
	put("machine.upgrade_misses", "count", float64(tot.UpgradeMisses))
	put("core.block_transfers", "count", float64(tot.BlockTransfers))
	put("sched.steals", "count", float64(tot.Steals))
	put("sched.steal_attempts", "count", float64(tot.StealAttempts))

	// real: per-kernel medians over passes, rt counters per pass.
	real := ph.real.passes
	for ki, k := range registry.FJKernels() {
		name := k.Name
		var wall, allocs, bytes []float64
		for _, p := range real {
			wall = append(wall, ms(p.calls[ki].wall))
			allocs = append(allocs, float64(p.calls[ki].allocs))
			bytes = append(bytes, float64(p.calls[ki].bytes))
		}
		put("algos."+name+".ms_p50", "ms", median(wall))
		put("algos."+name+".allocs", "count", median(allocs))
		put("algos."+name+".bytes", "B", median(bytes))
	}
	var steals, attempts, execed []float64
	var sSum, aSum float64
	for _, p := range real {
		steals = append(steals, float64(p.steals))
		attempts = append(attempts, float64(p.attempts))
		execed = append(execed, float64(p.execed))
		sSum += float64(p.steals)
		aSum += float64(p.attempts)
	}
	put("rt.steals", "count", median(steals))
	put("rt.steal_attempts", "count", median(attempts))
	put("rt.executed", "count", median(execed))
	put("rt.steal_success", "ratio", sSum/max(aSum, 1))
	put("go.real_gc_cpu_share", "%", ph.real.gc.gcShare())
	put("rt.run_empty_us", "us", base.runEmptyUS)
	put("rt.forkjoin_tree_us", "us", base.forkJoinUS)
	put("baseline.goroutine_tree_us", "us", base.goTreeUS)

	// serve
	var runSum float64
	for _, mk := range serveMix {
		put("registry."+mk.kernel+".run_us", "us", ex.runUS[mk.kernel])
		runSum += ex.runUS[mk.kernel]
	}
	put("registry.validate_us", "us", ex.validateUS)
	subP50 := ex.submit.p(0.5)
	put("serve.submit_us_p50", "us", subP50)
	put("serve.submit_us_p99", "us", ex.submit.p(0.99))
	lat, late := untraced.serve.pooled()
	// Per-layer metrics rather than end-to-end ones: see README.md.
	put("invoke_p50_ms", "ms", quantile(lat, 0.5)/1e3)
	put("invoke_p99_ms", "ms", quantile(lat, 0.99)/1e3)
	put("invoke_max_rps", "req/s", ex.maxRPS)
	put("serve.http_overhead_us_p50", "us", quantile(lat, 0.5)-subP50)
	put("serve.queue_wait_us_p50", "us", subP50-runSum/float64(len(serveMix))-base.runEmptyUS)
	sv := ph.serve
	put("serve.batch_width_mean.invoke", "count", sv.snapInvoke.widthMean())
	put("serve.batch_width_mean.batch", "count", sv.snapBatch.widthMean())
	put("serve.rejected", "count", float64(sv.snapInvoke.rejected+sv.snapBatch.rejected))
	put("serve.failed", "count", float64(sv.snapInvoke.failed+sv.snapBatch.failed))
	put("serve.canceled", "count", float64(sv.snapInvoke.canceled+sv.snapBatch.canceled))
	put("serve.service_p50_us", "us", ex.service.p50us)
	put("serve.service_p99_us", "us", ex.service.p99us)
	put("load.late_us_p50", "us", quantile(late, 0.5))
	put("load.late_us_p99", "us", quantile(late, 0.99))
	put("go.serve_mallocs_per_req", "count", sv.gc.mallocs/float64(sv.requests))
	put("go.serve_bytes_per_req", "B", sv.gc.bytes/float64(sv.requests))
	put("go.serve_gc_cpu_share", "%", sv.gc.gcShare())
	return m
}

func printMetrics(w io.Writer, m map[string]metric) {
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(w, "%-34s %16.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
