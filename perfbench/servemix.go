package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/fj"
	"repro/internal/rt"
	"repro/internal/serve"
)

// The serve-mix traffic: requests go round-robin over these kernels and
// sizes, each with a client-shipped payload.
var serveMix = []struct {
	kernel string
	n      int64
}{{"sort", 256}, {"scan", 1024}, {"fft", 64}, {"matmul", 16}}

const (
	payloadsPerKernel = 32                    // distinct payloads per mix kernel
	batchWindow       = 16                    // requests per /batch window
	latencyLimit      = 10 * time.Millisecond // p99 limit of invoke_max_rps
	// lateShare is the largest share of a latency quantile that the
	// generator's lateness at the same quantile may be before the
	// quantile is reported invalid.
	lateShare = 0.1
	spinAhead = 75 * time.Microsecond // see waitUntil
)

// mixReq is one prepared request: its payload, the pre-encoded /invoke
// body, and the serial reference output it must match byte for byte.
type mixReq struct {
	kernel registry.Invocable
	in     []int64
	ref    []int64
	body   []byte // /invoke JSON body (and one /batch line)
	refJS  []byte // JSON encoding of ref, as the service writes it
}

// serveBench is a running service behind httptest plus its prepared mix.
type serveBench struct {
	svc    *serve.Service
	srv    *httptest.Server
	client *http.Client
	reqs   []mixReq // request i of a run uses reqs[i%len(reqs)]
	next   int      // the mix position of the next open-loop step
	// trace is the span recorder of the current phase (nil: untraced).
	// The HTTP handler's goroutines read it, so it is swapped atomically.
	trace atomic.Pointer[recorder]
}

func (b *serveBench) rec() *recorder { return b.trace.Load() }

// newServeBench generates the payloads from seed, computes each one's
// reference output with a serial Invocable.Run, and starts the service
// with its default Config behind httptest on loopback.
func newServeBench(seed uint64, t *tally) (*serveBench, error) {
	serial := rt.NewPool(1, rt.Random)
	b := &serveBench{}
	for j := 0; j < payloadsPerKernel; j++ {
		for ki, m := range serveMix {
			k, ok := registry.FindInvocable(m.kernel)
			if !ok {
				return nil, fmt.Errorf("serve-mix: kernel %q is not invocable", m.kernel)
			}
			in, err := k.Gen(m.n, seed*7919+uint64(j*len(serveMix)+ki))
			if err != nil {
				return nil, fmt.Errorf("serve-mix: gen %s: %w", m.kernel, err)
			}
			ref := make([]int64, k.OutLen(in))
			fj.RunReal(serial, func(c *fj.Ctx) { k.Run(c, in, ref) })
			if !k.Verify(in, ref) {
				err = fmt.Errorf("serial reference for %s n=%d fails Verify", m.kernel, m.n)
			}
			t.op("serve", err)
			body, err := json.Marshal(serve.Request{Kernel: m.kernel, Input: in})
			if err != nil {
				return nil, err
			}
			refJS, err := json.Marshal(ref)
			if err != nil {
				return nil, err
			}
			b.reqs = append(b.reqs, mixReq{kernel: k, in: in, ref: ref, body: body, refJS: refJS})
		}
	}
	b.svc = serve.New(serve.Config{})
	b.srv = httptest.NewServer(b.spanHandler(b.svc.Handler()))
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}}
	// Warm the connections, the codec and the batcher.
	for i := 0; i < 2*len(b.reqs); i++ {
		t.op("serve", b.invoke(i))
	}
	return b, nil
}

func (b *serveBench) close() {
	b.client.CloseIdleConnections()
	b.srv.Close()
	b.svc.Close()
}

// spanHandler records a span around every request the HTTP handler serves,
// linked to the client's span through the X-Bench-* headers.
func (b *serveBench) spanHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := b.rec()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		sp := rec.begin("serve.Handler"+r.URL.Path, parent, req)
		h.ServeHTTP(w, r)
		rec.end(sp)
	})
}

func (b *serveBench) req(i int) *mixReq { return &b.reqs[i%len(b.reqs)] }

// checkOutput reports whether a response object carries exactly the
// reference output.  The fast path compares the wire bytes; a response
// that encodes the same words differently is decoded and compared word
// by word.
func checkOutput(line []byte, want *mixReq) bool {
	if i := bytes.Index(line, []byte(`"output":`)); i >= 0 && bytes.HasPrefix(line[i+len(`"output":`):], want.refJS) {
		return true
	}
	var r serve.Response
	if err := json.Unmarshal(line, &r); err != nil || len(r.Output) != len(want.ref) {
		return false
	}
	for i, w := range want.ref {
		if r.Output[i] != w {
			return false
		}
	}
	return true
}

// invoke posts request i to /invoke and checks the response.
func (b *serveBench) invoke(i int) error {
	q := b.req(i)
	rec := b.rec()
	req := rec.newReq()
	sp := rec.begin("http.invoke", 0, req)
	defer rec.end(sp)
	hr, err := http.NewRequest(http.MethodPost, b.srv.URL+"/invoke", bytes.NewReader(q.body))
	if err != nil {
		return err
	}
	if rec != nil {
		hr.Header.Set("X-Bench-Span", strconv.FormatInt(sp.id, 10))
		hr.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
	}
	resp, err := b.client.Do(hr)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/invoke %s: HTTP %d: %s", q.kernel.Name, resp.StatusCode, bytes.TrimSpace(body))
	}
	if !checkOutput(body, q) {
		return fmt.Errorf("/invoke %s: output differs from the serial reference", q.kernel.Name)
	}
	return nil
}

// submit runs request i through the in-process Service.Submit.
func (b *serveBench) submit(i int) error {
	q := b.req(i)
	rec := b.rec()
	req := rec.newReq()
	sp := rec.begin("serve.Service.Submit", 0, req)
	resp, err := b.svc.Submit(context.Background(), serve.Request{Kernel: q.kernel.Name, Input: q.in})
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("Submit %s: %w", q.kernel.Name, err)
	}
	if len(resp.Output) != len(q.ref) {
		return fmt.Errorf("Submit %s: output length %d, want %d", q.kernel.Name, len(resp.Output), len(q.ref))
	}
	for j, w := range q.ref {
		if resp.Output[j] != w {
			return fmt.Errorf("Submit %s: output differs from the serial reference", q.kernel.Name)
		}
	}
	return nil
}

// stepResult is one open-loop step at a fixed offered rate.
type stepResult struct {
	rate    float64
	lat     []float64 // µs from each request's due time to its response
	late    []float64 // µs the generator released each request after its due time
	failed  int
	backlog bool // requests were still queued client-side when the last was due
	wall    time.Duration
	steal   float64 // host steal share during the step, %
}

func (s stepResult) p(q float64) float64 { return quantile(s.lat, q) }

// meets reports whether the step satisfies the invoke_max_rps criterion:
// p99 within the limit, no failures and no growing backlog.
func (s stepResult) meets() bool {
	return s.failed == 0 && !s.backlog && s.p(0.99) <= us(latencyLimit)
}

// waitUntil returns at t.  The pacing method: Go's timers round a wait
// up to the next millisecond when the process is idle (time.Sleep(50µs)
// returns about 1 ms late on small VMs), which would charge the
// generator's own lateness to the service.  So the pacer sleeps in the
// kernel with nanosleep(2), whose high-resolution timer wakes it within
// tens of microseconds, until spinAhead before t, then spins on the clock
// for the rest.  The spin holds one processor for at most spinAhead.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinAhead; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
	}
}

// openLoop offers count requests at rate per second, request i due at
// start + i/rate, whatever the service does.  One pacer goroutine releases
// each request at its due time to two sender goroutines (one per
// connection); latency runs from the due time, so a stalled service is
// charged for the requests that queue behind it.
func openLoop(rate float64, count, first int, send func(i int) error, t *tally) stepResult {
	r := stepResult{rate: rate, lat: make([]float64, count), late: make([]float64, count)}
	due := make([]time.Time, count)
	ch := make(chan int, count) // sized to the number of sends: the pacer never blocks
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				err := send(first + i)
				r.lat[i] = us(time.Since(due[i]))
				t.op("serve", err)
				if err != nil {
					r.lat[i] = math.Inf(1) // a failed request misses the latency limit
					mu.Lock()
					r.failed++
					mu.Unlock()
				}
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < count; i++ {
		due[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	for i := 0; i < count; i++ {
		waitUntil(due[i])
		r.late[i] = us(time.Since(due[i]))
		ch <- i
	}
	r.backlog = float64(len(ch)) > math.Max(2, rate*latencyLimit.Seconds())
	close(ch)
	wg.Wait()
	r.wall = time.Since(start)
	return r
}

// step offers count requests at rate through send, continuing the mix
// where the previous step stopped.
func (b *serveBench) step(rate float64, count int, send func(i int) error, t *tally) stepResult {
	r := openLoop(rate, count, b.next, send, t)
	b.next += count
	return r
}

// batchResult is the closed-loop /batch phase.
type batchResult struct {
	ok, failed int
	ttfr       []float64 // ms from a window's send to its first response line
	wall       time.Duration
	steal      float64 // host steal share during the segment, %
}

// batchWindow posts requests [first, first+batchWindow) as one JSONL
// /batch call and checks every streamed line.  It returns the time to the
// first line and the number of requests that failed.
func (b *serveBench) batchWindowCall(first int) (time.Duration, int, error) {
	var body bytes.Buffer
	for i := 0; i < batchWindow; i++ {
		body.Write(b.req(first + i).body)
		body.WriteByte('\n')
	}
	rec := b.rec()
	req := rec.newReq()
	sp := rec.begin("http.batch", 0, req)
	defer rec.end(sp)
	hr, err := http.NewRequest(http.MethodPost, b.srv.URL+"/batch", &body)
	if err != nil {
		return 0, batchWindow, err
	}
	if rec != nil {
		hr.Header.Set("X-Bench-Span", strconv.FormatInt(sp.id, 10))
		hr.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
	}
	t0 := time.Now()
	resp, err := b.client.Do(hr)
	if err != nil {
		return 0, batchWindow, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return 0, batchWindow, fmt.Errorf("/batch: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var ttfr time.Duration
	seen := make([]bool, batchWindow)
	failed := 0
	var firstErr error
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if ttfr == 0 {
				ttfr = time.Since(t0)
			}
			idx, ok := lineIndex(line)
			switch {
			case !ok || idx < 0 || idx >= batchWindow || seen[idx]:
				failed++
				firstErr = fmt.Errorf("/batch: bad line %.80q", line)
			case bytes.Contains(line, []byte(`"error":`)):
				seen[idx] = true
				failed++
				firstErr = fmt.Errorf("/batch: inline error %.120q", line)
			default:
				seen[idx] = true
				if !checkOutput(line, b.req(first+idx)) {
					failed++
					firstErr = fmt.Errorf("/batch %s: output differs from the serial reference", b.req(first+idx).kernel.Name)
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return ttfr, batchWindow, err
		}
	}
	for _, s := range seen {
		if !s {
			failed++
			firstErr = fmt.Errorf("/batch: a request got no response line")
		}
	}
	return ttfr, failed, firstErr
}

// lineIndex extracts the "index" field of a streamed /batch line.
func lineIndex(line []byte) (int, bool) {
	i := bytes.Index(line, []byte(`"index":`))
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(`"index":`):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

// batchLoop runs closed-loop /batch windows on two connections, one window
// in flight on each, until the deadline.
func (b *serveBench) batchLoop(deadline time.Time, minWindows int, t *tally) batchResult {
	var res batchResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	t0 := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if time.Now().After(deadline) && next >= minWindows {
					mu.Unlock()
					return
				}
				first := next * batchWindow
				next++
				mu.Unlock()
				ttfr, failed, err := b.batchWindowCall(first)
				mu.Lock()
				res.ok += batchWindow - failed
				res.failed += failed
				if ttfr > 0 {
					res.ttfr = append(res.ttfr, ms(ttfr))
				}
				mu.Unlock()
				t.ops("serve", batchWindow, failed, err)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	return res
}

// snapshot reads the service's counters.
func (b *serveBench) snapshot() serve.Snapshot { return b.svc.Metrics().Snapshot() }

// metricsOverHTTP reads /metrics the way an operator would.
func (b *serveBench) metricsOverHTTP() (serve.Snapshot, error) {
	var s serve.Snapshot
	resp, err := b.client.Get(b.srv.URL + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// kernelRunUS times Invocable.Run under fj.RunReal on pool for each mix
// kernel (median µs over reps calls per payload) and Validate over the
// whole mix (median µs per call).
func (b *serveBench) kernelRunUS(pool *rt.Pool, reps int) (map[string]float64, float64) {
	rec := b.rec()
	runs := map[string][]float64{}
	var val []float64
	for r := 0; r < reps; r++ {
		for i := range b.reqs {
			q := &b.reqs[i]
			out := make([]int64, len(q.ref))
			req := rec.newReq()
			sp := rec.begin("fj.RunReal", 0, req)
			t0 := time.Now()
			fj.RunReal(pool, func(c *fj.Ctx) {
				k := rec.begin("registry.Invocable.Run", sp.id, req)
				q.kernel.Run(c, q.in, out)
				rec.end(k)
			})
			runs[q.kernel.Name] = append(runs[q.kernel.Name], us(time.Since(t0)))
			rec.end(sp)
			t0 = time.Now()
			err := q.kernel.Validate(q.in)
			val = append(val, us(time.Since(t0)))
			if err != nil {
				val[len(val)-1] = math.Inf(1)
			}
		}
	}
	out := map[string]float64{}
	for k, xs := range runs {
		out[k] = median(xs)
	}
	return out, median(val)
}

// serveDelta is the change in the service's counters over one phase.
type serveDelta struct {
	batches, batched, rejected, failed, canceled int64
}

func (d *serveDelta) add(o serveDelta) {
	d.batches += o.batches
	d.batched += o.batched
	d.rejected += o.rejected
	d.failed += o.failed
	d.canceled += o.canceled
}

func deltaOf(a, b serve.Snapshot) serveDelta {
	return serveDelta{
		batches:  b.Batches - a.Batches,
		batched:  b.BatchedRequests - a.BatchedRequests,
		rejected: b.Rejected - a.Rejected,
		failed:   b.Failed - a.Failed,
		canceled: b.Canceled - a.Canceled,
	}
}

// widthMean is the mean number of requests per fork-join invocation.
func (d serveDelta) widthMean() float64 {
	if d.batches == 0 {
		return 0
	}
	return float64(d.batched) / float64(d.batches)
}

// serveSnapshot is the service's own latency quantiles from /metrics
// (power-of-two bins: a cross-check, not a measurement).
type serveSnapshot struct{ p50us, p99us float64 }
