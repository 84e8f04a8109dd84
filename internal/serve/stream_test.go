package serve

// Acceptance gates for the streaming /batch protocol and the adaptive
// flush deadline — the two serving-layer tentpole behaviors.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBatchStreamsBeforeCompletion proves /batch is genuinely streaming:
// the first response line reaches the client while the batch's other
// request has not yet run.  A one-worker pool and a test hook that blocks
// the first-completing subtask *after* it resolved its completion channel
// make this deterministic — while the hook holds the pool's only worker,
// the second subtask cannot start, yet the first response must already be
// readable off the wire.
func TestBatchStreamsBeforeCompletion(t *testing.T) {
	svc := New(Config{Pool: 1, BatchSize: 2, FlushDelay: 5 * time.Second, FlushPolicy: FlushFixed, QueueBound: 16})
	defer svc.Close()

	release := make(chan struct{})
	held := make(chan []int64, 1) // output of the subtask the gate holds
	var gate sync.Once
	var entered atomic.Int32 // subtasks that finished (entered the hook)
	svc.hookSubtask = func(out []int64) {
		entered.Add(1)
		gate.Do(func() {
			held <- append([]int64(nil), out...)
			<-release
		})
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	// Deferred last so it runs first: a failing check must free the held
	// worker, or closing the server and the service waits on it forever.
	var unblock sync.Once
	defer unblock.Do(func() { close(release) })

	var buf bytes.Buffer
	buf.WriteString(`{"kernel":"sort","n":64,"seed":1}` + "\n")
	buf.WriteString(`{"kernel":"sort","n":64,"seed":2}` + "\n")
	hr, err := http.Post(ts.URL+"/batch", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d", hr.StatusCode)
	}

	// First line: must arrive while the gate still holds the batch open.
	br := bufio.NewReader(hr.Body)
	line1, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("first stream line: %v", err)
	}
	// The request's response is sent before its subtask enters the hook,
	// so wait for the hook to record the held output before comparing.
	// The window's requests are submitted concurrently, so a subtask's
	// position in the batch says nothing about its request's stream index:
	// the held subtask is identified by its output instead.
	heldOut := <-held
	if n := entered.Load(); n != 1 {
		t.Fatalf("%d subtasks completed before the first line was read, want exactly 1", n)
	}
	var first Response
	if err := json.Unmarshal(line1, &first); err != nil {
		t.Fatalf("first line %q: %v", line1, err)
	}
	if !slices.Equal(first.Output, heldOut) {
		t.Fatalf("first line (index %d) is not the held subtask's response", first.Index)
	}

	// Release the batch; the second response follows, then the stream ends.
	unblock.Do(func() { close(release) })
	line2, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("second stream line: %v", err)
	}
	var second Response
	if err := json.Unmarshal(line2, &second); err != nil {
		t.Fatalf("second line %q: %v", line2, err)
	}
	if first.Index+second.Index != 1 { // {0, 1} in either order
		t.Fatalf("stream indexes {%d, %d}, want {0, 1}", first.Index, second.Index)
	}
	for _, r := range []Response{first, second} {
		if r.Kernel != "sort" || r.N != 64 || r.Batched != 2 {
			t.Fatalf("bad streamed response: %+v", r)
		}
	}
	if _, err := br.ReadBytes('\n'); err == nil {
		t.Fatal("stream carried more than two lines")
	}
}

// adaptiveFlushMax is the fixed flush bound the adaptive-deadline gate
// runs under: long enough that burning it whole is unmistakable in the
// latency distribution.
const adaptiveFlushMax = 100 * time.Millisecond

// runFlushArm drives one closed-loop arm — two clients, ten sorts each —
// against a one-worker service and returns the sorted client-observed
// latencies.
func runFlushArm(t *testing.T, batch int, policy FlushPolicy) []time.Duration {
	t.Helper()
	svc := New(Config{Pool: 1, BatchSize: batch, FlushDelay: adaptiveFlushMax, FlushPolicy: policy, QueueBound: 64})
	defer svc.Close()
	const clients, perClient = 2, 10
	var mu sync.Mutex
	lat := make([]time.Duration, 0, clients*perClient)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				start := time.Now()
				if _, err := svc.Submit(context.Background(), Request{Kernel: "sort", N: 64, Seed: uint64(100*cl + i)}); err != nil {
					t.Error(err)
					return
				}
				d := time.Since(start)
				mu.Lock()
				lat = append(lat, d)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// latQuantile reads quantile q off a sorted latency slice.
func latQuantile(sorted []time.Duration, q float64) time.Duration {
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

// TestAdaptiveFlushHoldsTailLatency is the EXP16 batch > clients pathology
// as a gate: with batch size 8 but only 2 closed-loop clients, a fixed
// flush deadline parks every partial batch for the full window (p50 climbs
// to deadline scale), while the adaptive deadline notices the arrival gap
// and keeps the tail at unbatched scale.
func TestAdaptiveFlushHoldsTailLatency(t *testing.T) {
	base := runFlushArm(t, 1, FlushFixed) // no batching: the latency floor
	fixed := runFlushArm(t, 8, FlushFixed)
	adapt := runFlushArm(t, 8, FlushAdaptive)

	p99base := latQuantile(base, 0.99)
	p50fixed := latQuantile(fixed, 0.50)
	p99adapt := latQuantile(adapt, 0.99)
	t.Logf("p99 base %v, p50 fixed %v, p99 adaptive %v", p99base, p50fixed, p99adapt)

	// The pathology must be real in the fixed arm, or the comparison below
	// proves nothing.
	if p50fixed < adaptiveFlushMax/2 {
		t.Fatalf("fixed-deadline arm p50 %v never hit the pathology (flush bound %v)", p50fixed, adaptiveFlushMax)
	}
	// Adaptive must hold the tail at unbatched scale: within a small factor
	// of the batch=1 arm (floored against scheduler noise), and strictly
	// better than the fixed arm's *median*.
	bound := 5 * p99base
	if floor := 25 * time.Millisecond; bound < floor {
		bound = floor
	}
	if p99adapt > bound {
		t.Errorf("adaptive p99 %v exceeds %v (5× batch=1 p99 %v, floored)", p99adapt, bound, p99base)
	}
	if p99adapt >= p50fixed {
		t.Errorf("adaptive p99 %v not below fixed p50 %v", p99adapt, p50fixed)
	}
}
