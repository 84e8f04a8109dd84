// Package serve is the kernel-as-a-service front-end: a long-running
// service that schedules catalog kernel invocations (every kernel in the
// registry's invocable slice — all nine fj kernels) on a single shared
// internal/rt work-stealing pool.
//
// The expensive unit on the real backend is the fork-join invocation
// itself: every rt.Pool.Run spins the worker set up and back down, which
// dwarfs the kernel work for small requests.  The service therefore routes
// every request through a batcher that coalesces small same-kernel requests
// into one fork-join invocation — the batch root forks one subtask per
// request, so a batch of k sorts costs one pool invocation instead of k —
// flushing on batch size or on a deadline, whichever comes first.  The
// deadline is adaptive by default (FlushAdaptive): the dispatcher tracks an
// EWMA of same-source inter-arrival gaps and stops waiting once the next
// request is overdue by that measure, bounded above by FlushDelay — so a
// batch size above the offered concurrency degrades to the observed gap,
// not to the full fixed deadline (the EXP16 batch > clients pathology).
// Batched execution is byte-identical to per-request serial execution: the
// served kernels are deterministic, each request's subtask touches only
// that request's input and output slices, and the float kernels' payload
// codecs are exact bit casts.
//
// Completion is per request, not per batch: each subtask resolves its
// request's channel the moment it finishes, so /batch can stream responses
// as they complete (tagged with the request index) instead of holding the
// whole batch until its slowest member lands.
//
// Admission control is a bounded queue: when it is full the service answers
// with backpressure (ErrOverloaded, HTTP 429 + Retry-After) instead of
// queueing without limit, and a caller that abandons its request
// (context cancellation, client disconnect) is dropped before its kernel is
// ever scheduled.  Counters and latency quantiles are exposed as JSON on
// /metrics (see Metrics); the HTTP surface (http.go) also serves /invoke
// (single JSON request), /batch (JSONL stream), /kernels and /healthz.
//
// cmd/hbpserve wraps the package as a server binary, cmd/hbpload drives it
// with closed-loop load, and EXP16 (internal/bench) measures throughput and
// p50/p99 latency across offered load × batch size × pool size.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/fj"
	"repro/internal/rt"
)

// Service errors.  The HTTP layer maps them onto status codes; in-process
// callers test them with errors.Is.
var (
	// ErrUnknownKernel: the request names no invocable catalog kernel (404).
	ErrUnknownKernel = errors.New("serve: unknown kernel")
	// ErrBadRequest: the payload failed shape validation (400).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrOverloaded: the admission queue is full; retry later (429).
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrClosed: the service is shutting down (503).
	ErrClosed = errors.New("serve: closed")
	// ErrKernel: the kernel failed while running (500).
	ErrKernel = errors.New("serve: kernel failure")
)

// Request is one kernel invocation.  Either Input carries the payload
// words (the encodings are documented on registry.Invocable), or Input is
// absent and the service generates the catalog's seeded size-N workload —
// per-request seeding, so distinct requests get distinct reproducible
// inputs.  Verify asks the service to re-check the output serially against
// the kernel's verifier and report the outcome.
type Request struct {
	Kernel string  `json:"kernel"`
	Input  []int64 `json:"input,omitempty"`
	N      int64   `json:"n,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
	Verify bool    `json:"verify,omitempty"`
}

// Response is the result of one request.  Batched reports how many
// requests shared the fork-join invocation this one rode in (1 = it ran
// alone); Verified is present only when the request asked for verification.
// Index is the 0-based position of the request this response answers in
// its submitted /batch (or SubmitBatch) window — the reorder key of the
// streaming protocol, 0 for single-request Submit/invoke.
type Response struct {
	Kernel   string  `json:"kernel"`
	N        int64   `json:"n"`
	Index    int     `json:"index"`
	Output   []int64 `json:"output"`
	Batched  int     `json:"batched"`
	Verified *bool   `json:"verified,omitempty"`
}

// FlushPolicy selects how a partial batch decides it has waited long
// enough for more same-kernel arrivals.
type FlushPolicy int

const (
	// FlushAdaptive (the default) waits only while the next request is
	// plausibly coming: a few multiples of the observed inter-arrival gap
	// EWMA, bounded above by FlushDelay.  With no gap history yet it waits
	// the full FlushDelay.
	FlushAdaptive FlushPolicy = iota
	// FlushFixed always waits out FlushDelay — the pre-adaptive behavior,
	// kept selectable as EXP16's comparison arm and for tests that need a
	// deterministic coalescing window.
	FlushFixed
)

// String names the policy the way EXP16 rows and hbpserve flags spell it.
func (p FlushPolicy) String() string {
	if p == FlushFixed {
		return "fixed"
	}
	return "adaptive"
}

// Config sizes the service.  The zero value is usable: every field has a
// serving-grade default.
type Config struct {
	// Pool is the worker count of the shared rt.Pool (default GOMAXPROCS).
	Pool int
	// BatchSize flushes a batch when this many same-kernel requests have
	// coalesced (default 8; 1 disables batching).
	BatchSize int
	// FlushDelay bounds how long a partial batch waits after assembly
	// started, so a lone request is never parked behind an unreachable
	// batch size (default 500µs).  Under FlushAdaptive it is the upper
	// bound; under FlushFixed it is the whole wait.
	FlushDelay time.Duration
	// FlushPolicy picks the partial-batch wait rule (default FlushAdaptive).
	FlushPolicy FlushPolicy
	// QueueBound caps the admission queue; a full queue answers
	// ErrOverloaded (default 256).
	QueueBound int
	// MaxWords caps a single request's payload (explicit or generated) in
	// int64 words (default 1<<22, 32 MiB).
	MaxWords int64
	// RatePerSec enables per-client rate limiting on the HTTP surface: each
	// client (X-Client-ID header, falling back to the remote host) accrues
	// this many request tokens per second.  0 disables limiting (the
	// default — in-process Submit callers are never limited either way).
	RatePerSec float64
	// RateBurst caps a client's accrued tokens, i.e. the burst it may send
	// after idling (default max(1, ⌈RatePerSec⌉)).
	RateBurst int
	// RateClients caps how many client buckets the limiter tracks; the
	// least-recently-seen bucket is evicted beyond it (default 1024).
	RateClients int
}

func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = 0 // rt.NewPool treats 0 as GOMAXPROCS
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.FlushDelay <= 0 {
		c.FlushDelay = 500 * time.Microsecond
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 256
	}
	if c.MaxWords <= 0 {
		c.MaxWords = 1 << 22
	}
	if c.RatePerSec > 0 && c.RateBurst <= 0 {
		c.RateBurst = int(math.Ceil(c.RatePerSec))
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	if c.RateClients <= 0 {
		c.RateClients = 1024
	}
	return c
}

// Service schedules invocable catalog kernels on one shared rt.Pool.
// Create with New, serve HTTP with Handler, call in-process with Submit,
// shut down with Close.
type Service struct {
	cfg     Config
	pool    *rt.Pool
	met     *Metrics
	b       *batcher
	limiter *multiLimiter // nil when Config.RatePerSec is 0

	// hookBatch, when set (tests only), observes every batch immediately
	// before it runs on the pool.
	hookBatch func(width int)
	// hookSubtask, when set (tests only), runs inside the pool right after
	// a batch subtask resolved its request's completion channel with out —
	// the deterministic gate the streaming tests hold a batch open with.
	hookSubtask func(out []int64)
}

// New starts a service with its dispatcher running.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:  cfg,
		pool: rt.NewPool(cfg.Pool, rt.Random),
		met:  &Metrics{},
	}
	s.b = newBatcher(cfg.BatchSize, cfg.FlushDelay, cfg.FlushPolicy == FlushAdaptive, cfg.QueueBound, s.runBatch, s.dropCall)
	s.met.queueDepth = s.b.depth
	if cfg.RatePerSec > 0 {
		s.limiter = newMultiLimiter(cfg.RatePerSec, cfg.RateBurst, cfg.RateClients)
		s.met.rates = s.limiter.snapshot
	}
	return s
}

// Close stops admission, lets the in-flight batch finish, and resolves
// queued requests with ErrClosed.
func (s *Service) Close() { s.b.close() }

// Metrics returns the service's live counter set.
func (s *Service) Metrics() *Metrics { return s.met }

// Submit runs one request through the service: resolve the kernel, decode
// and validate the payload, ride the batcher, and return the response.  It
// blocks until the response is ready or ctx is done; an abandoned request
// is dropped before its kernel is scheduled.
func (s *Service) Submit(ctx context.Context, req Request) (Response, error) {
	k, ok := registry.FindInvocable(req.Kernel)
	if !ok {
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownKernel, req.Kernel)
	}
	in := req.Input
	if in == nil {
		// Size the generated payload before allocating anything: for the
		// matrix kernels n words of request expand to 2n² words of payload.
		if k.InWords(req.N) > s.cfg.MaxWords {
			return Response{}, fmt.Errorf("%w: n = %d needs %d payload words, over the %d-word cap", ErrBadRequest, req.N, k.InWords(req.N), s.cfg.MaxWords)
		}
		var err error
		in, err = k.Gen(req.N, req.Seed)
		if err != nil {
			return Response{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if int64(len(in)) > s.cfg.MaxWords {
		return Response{}, fmt.Errorf("%w: payload of %d words exceeds the %d-word cap", ErrBadRequest, len(in), s.cfg.MaxWords)
	}
	if err := k.Validate(in); err != nil {
		return Response{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	c := &call{
		ctx:      ctx,
		kernel:   k,
		in:       in,
		verify:   req.Verify,
		enqueued: time.Now(),
		done:     make(chan result, 1),
	}
	if err := s.b.enqueue(c); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.met.rejected.Add(1)
		}
		return Response{}, err
	}
	s.met.accepted.Add(1)
	select {
	case r := <-c.done:
		return r.resp, r.err
	case <-ctx.Done():
		// The dispatcher will observe the cancelled context and drop the
		// call without scheduling it (or, if the batch already launched,
		// the buffered done channel absorbs the unread result).
		return Response{}, ctx.Err()
	}
}

// BatchResult is one streamed result of SubmitBatch: the index of the
// request it answers (also stamped on Resp.Index) and either a response or
// the error that kept that request from completing.
type BatchResult struct {
	Index int
	Resp  Response
	Err   error
}

// SubmitBatch submits reqs concurrently (so they can coalesce into
// batches) and returns a channel delivering each result the moment its
// subtask completes — in completion order, not request order, each tagged
// with its request index.  The channel closes after len(reqs) results.
// This is the in-process face of the streaming /batch protocol; EXP16's
// streaming arm and cmd/hbpload's batch mode both consume it.
func (s *Service) SubmitBatch(ctx context.Context, reqs []Request) <-chan BatchResult {
	out := make(chan BatchResult, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(ctx, reqs[i])
			resp.Index = i
			out <- BatchResult{Index: i, Resp: resp, Err: err}
		}(i)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// runBatch executes one same-kernel batch as a single fork-join invocation
// on the shared pool: the root forks one subtask per request, each writing
// its own output slice, so outputs are partitioned by construction and
// batched execution stays byte-identical to per-request runs.  Each
// subtask resolves its own request's completion channel as soon as it
// finishes (finish below) — per-request completion, the property the
// streaming /batch surface is built on.
func (s *Service) runBatch(batch []*call) {
	if s.hookBatch != nil {
		s.hookBatch(len(batch))
	}
	width := len(batch)
	// The batch counters tick at schedule time, before the invocation:
	// responses can now leave mid-run, and a client must never read
	// /metrics after its response yet before its batch was counted.
	s.met.observeBatch(width)
	outs := make([][]int64, width)
	for i, c := range batch {
		outs[i] = make([]int64, c.kernel.OutLen(c.in))
	}
	fj.RunReal(s.pool, func(fc *fj.Ctx) {
		fc.For(0, int64(width), 1, func(fc *fj.Ctx, i int64) {
			s.finish(fc, batch[i], outs[i], int(i), width)
		})
	})
}

// finish runs one request's subtask and resolves its completion channel in
// place, inside the pool invocation.
func (s *Service) finish(fc *fj.Ctx, c *call, out []int64, i, width int) {
	var kerr error
	func() {
		// Validation guarantees panic-free kernels; this recover is a
		// last line of defense for the task's own goroutine so a bug
		// fails one request, not the process.  (A panic inside a forked
		// grandchild still crashes — by design: it is a program bug.)
		defer func() {
			if r := recover(); r != nil {
				kerr = fmt.Errorf("%w: %v", ErrKernel, r)
			}
		}()
		c.kernel.Run(fc, c.in, out)
	}()
	if kerr != nil {
		s.met.failed.Add(1)
		c.done <- result{err: kerr}
	} else {
		resp := Response{
			Kernel:  c.kernel.Name,
			N:       int64(len(out)),
			Output:  out,
			Batched: width,
		}
		if c.verify {
			v := c.kernel.Verify(c.in, out)
			resp.Verified = &v
		}
		s.met.completed.Add(1)
		s.met.latency.observe(time.Since(c.enqueued).Nanoseconds())
		c.done <- result{resp: resp}
	}
	if s.hookSubtask != nil {
		s.hookSubtask(out)
	}
}

// dropCall resolves a call that never reached the pool.
func (s *Service) dropCall(c *call, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.met.canceled.Add(1)
	} else {
		s.met.failed.Add(1)
	}
	c.done <- result{err: err}
}
