package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/serve"
)

// EXP16 measures the kernel service (internal/serve): closed-loop clients
// submit small sort requests in-process and the cell reports end-to-end
// throughput and queue-to-response latency across offered load (client
// count) × batch size × pool size.  The quantity under test is the
// batching scheduler's amortization of the fork-join invocation cost —
// rt.Pool.Run spins the worker set up and down per invocation, so at small
// request sizes a batch of k requests costs one invocation instead of k.
// The headline column is the gain of each batch size over the batch=1
// baseline at the same client count and pool size; unlike the speedup
// experiments this gain does not need multiple cores, because the
// invocation overhead being amortized is paid even at p = 1.
//
// Each (clients, batch, pool) coordinate runs up to three arms:
//
//   - flush=fixed  mode=rpc    — the full fixed flush window, per-request
//     Submit round trips: the pre-adaptive behavior and the Ratio baseline
//     (at batch=1).
//   - flush=adaptive mode=rpc  — the same traffic under the adaptive
//     deadline (batch > 1 only; at batch=1 the deadline never matters).
//     The batch > clients cells are the arm of record for the adaptive
//     deadline: under a fixed flush a closed loop can never fill the batch
//     and every request eats the whole window, while the adaptive deadline
//     flushes as soon as the next arrival is overdue.
//   - flush=adaptive mode=stream — clients submit windows of `batch`
//     requests through SubmitBatch (the in-process face of the streaming
//     /batch protocol) and drain responses in completion order; run at the
//     grid's widest batch per (clients, pool).
//
// Cells are Exclusive (wall-clock must not share the machine with the
// concurrent harness batch) and rows Volatile, as in EXP13.  The
// configuration that is not row identity — batch size, client count, flush
// policy, submission mode — is encoded in Note together with the
// verification status, because Note survives harness.Normalize; the
// measurements live in volatile-zeroed columns (WallNS = cell wall time,
// Aux1 = requests/s, Aux2/Aux3 = the service's own p50/p99 latency in ns,
// Bound = runtime.NumCPU(), Ratio = throughput gain over the batch=1
// fixed/rpc baseline, filled by exp16Finish).  Every request asks the
// service to verify its output, so the status in Note is also an
// end-to-end correctness check of the served batches.

// exp16FlushDelay bounds how long a partial batch waits.  It is deliberately
// generous relative to request latency so that whenever clients ≥ batch the
// size trigger, not the deadline, flushes — the arm being measured.  Under
// flush=fixed the batch > clients arms burn this whole window per batch
// (the pathology the adaptive arms retire); under flush=adaptive it is only
// the upper bound on the gap-driven wait.  The window sits well above the
// platform timer granularity (~1ms on coarse-tick kernels): the adaptive
// wait can flush no earlier than one timer tick, so a bound down in that
// noise would make the two policies indistinguishable.
const exp16FlushDelay = 5 * time.Millisecond

// exp16N is the per-request problem size: small enough that the fork-join
// invocation overhead dominates, which is the regime batching targets.
const exp16N = 256

// exp16Grid is the sweep: client counts (offered load), batch sizes, and
// pool sizes.
func exp16Grid(quick bool) (clients, batches, pools []int, requests int) {
	if quick {
		// batch=8 > clients=4 keeps the pathological coordinate — the
		// adaptive arm's raison d'être — in the quick grid too.
		return []int{4}, []int{1, 4, 8}, []int{1, 2}, 64
	}
	return []int{2, 8}, []int{1, 4, 8}, []int{1, 4}, 256
}

// exp16Arm is one serving configuration at a grid coordinate: the batch
// size plus the flush policy and submission mode (rpc = per-request Submit
// round trips, stream = SubmitBatch windows drained in completion order).
type exp16Arm struct {
	batch  int
	policy serve.FlushPolicy
	stream bool
}

func (a exp16Arm) mode() string {
	if a.stream {
		return "stream"
	}
	return "rpc"
}

// exp16Arms expands the batch axis into the arms run at one
// (clients, pool) coordinate: fixed/rpc at every batch size, adaptive/rpc
// wherever the deadline can matter (batch > 1), and one adaptive/stream
// arm at the widest batch.
func exp16Arms(batches []int) []exp16Arm {
	var arms []exp16Arm
	for _, ba := range batches {
		arms = append(arms, exp16Arm{ba, serve.FlushFixed, false})
		if ba > 1 {
			arms = append(arms, exp16Arm{ba, serve.FlushAdaptive, false})
		}
	}
	arms = append(arms, exp16Arm{batches[len(batches)-1], serve.FlushAdaptive, true})
	return arms
}

// exp16Run drives one cell: a fresh service, `clients` closed-loop client
// goroutines issuing `requests` verified sort submissions between them
// (one at a time under rpc, windows of `batch` under stream), and a row
// built from the wall clock plus the service's own metrics.
func exp16Run(clients, poolP, requests, rep int, seed uint64, arm exp16Arm) harness.Row {
	svc := serve.New(serve.Config{
		Pool:        poolP,
		BatchSize:   arm.batch,
		FlushDelay:  exp16FlushDelay,
		FlushPolicy: arm.policy,
		// A closed loop has at most clients×window requests in flight, so
		// this bound can never reject; it exists to keep the
		// admission-control path identical to production configs.
		QueueBound: 4 * clients * arm.batch,
	})
	defer svc.Close()

	var bad atomic.Int64
	per := requests / clients
	var wg sync.WaitGroup
	start := time.Now() //lint:allow determinism wall-clock feeds WallNS and Volatile-row fields, all zeroed by Normalize for -canon
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if arm.stream {
				for i := 0; i < per; i += arm.batch {
					win := arm.batch
					if per-i < win {
						win = per - i
					}
					reqs := make([]serve.Request, win)
					for j := range reqs {
						reqs[j] = serve.Request{
							Kernel: "sort", N: exp16N,
							Seed:   seed + uint64(c*per+i+j),
							Verify: true,
						}
					}
					for res := range svc.SubmitBatch(context.Background(), reqs) {
						if res.Err != nil || res.Resp.Verified == nil || !*res.Resp.Verified {
							bad.Add(1)
						}
					}
				}
				return
			}
			for i := 0; i < per; i++ {
				resp, err := svc.Submit(context.Background(), serve.Request{
					Kernel: "sort", N: exp16N,
					Seed:   seed + uint64(c*per+i),
					Verify: true,
				})
				if err != nil || resp.Verified == nil || !*resp.Verified {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	el := time.Since(start)
	m := svc.Metrics().Snapshot()
	total := clients * per
	return harness.Row{
		Exp: "EXP16", Algo: "sort", N: exp16N, P: poolP,
		Sched: "serve", Repeat: rep, Seed: seed,
		WallNS: el.Nanoseconds(), Volatile: true,
		Aux1:  float64(total) / el.Seconds(),
		Aux2:  float64(m.LatencyP50NS),
		Aux3:  float64(m.LatencyP99NS),
		Bound: numCPU(),
		Note: fmt.Sprintf("batch=%d clients=%d flush=%s mode=%s %s",
			arm.batch, clients, arm.policy, arm.mode(), statusNote(bad.Load() == 0)),
	}
}

func exp16Cells(p Params) []harness.Cell {
	clients, batches, pools, requests := exp16Grid(p.Quick)
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, cl := range clients {
			for _, po := range pools {
				for _, arm := range exp16Arms(batches) {
					cl, po, arm := cl, po, arm
					cells = append(cells, harness.Cell{
						Exp:   "EXP16",
						Label: fmt.Sprintf("sort/b%d/c%d/p%d/%s/%s", arm.batch, cl, po, arm.policy, arm.mode()),
						// Wall-clock cells must not share the machine with
						// the concurrent harness batch.
						Exclusive: true,
						Run: func() []harness.Row {
							return []harness.Row{exp16Run(cl, po, requests, rep, seed, arm)}
						},
					})
				}
			}
		}
	})
	return cells
}

// exp16Note recovers the arm coordinates a row's Note encodes.
func exp16Note(r harness.Row) (batch, clients int, flush, mode string, ok bool) {
	var status string
	n, err := fmt.Sscanf(r.Note, "batch=%d clients=%d flush=%s mode=%s %s", &batch, &clients, &flush, &mode, &status)
	return batch, clients, flush, mode, err == nil && n == 5
}

// exp16Baseline reports whether a row is the Ratio baseline of its
// (clients, pool, repeat) coordinate: batch=1 under the fixed flush, rpc
// submission — the unbatched pre-adaptive service.
func exp16Baseline(r harness.Row) bool {
	batch, _, flush, mode, ok := exp16Note(r)
	return ok && batch == 1 && flush == "fixed" && mode == "rpc"
}

// exp16Finish fills Ratio = this cell's throughput over the batch=1
// fixed/rpc cell with the same client count, pool size and repeat — the
// batching gain of every arm against the same unbatched baseline.
func exp16Finish(rows []harness.Row) []harness.Row {
	for i, r := range rows {
		_, clients, _, _, ok := exp16Note(r)
		if !ok {
			continue
		}
		if exp16Baseline(r) {
			rows[i].Ratio = 1
			continue
		}
		base, found := findRow(rows, func(b harness.Row) bool {
			_, bc, _, _, bok := exp16Note(b)
			return bok && exp16Baseline(b) && bc == clients && b.P == r.P && b.Repeat == r.Repeat
		})
		if found && base.Aux1 > 0 {
			rows[i].Ratio = r.Aux1 / base.Aux1
		}
	}
	return rows
}

func exp16Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP16 — kernel service: throughput and tail latency vs batch size, flush policy, submission mode")
	t := harness.NewTable(w, "kernel", "n", "pool", "batch", "clients", "flush", "mode", "wall", "req/s", "p50", "p99", "gain", "cpus", "status")
	for _, r := range rows {
		batch, clients, flush, mode, ok := exp16Note(r)
		if !ok {
			batch, clients = 0, 0
		}
		status := ""
		if len(r.Note) < 2 || r.Note[len(r.Note)-2:] != "ok" {
			status = "WRONG RESULT"
		}
		t.Line(r.Algo, harness.F(r.N), harness.F(r.P), harness.F(batch), harness.F(clients),
			flush, mode,
			time.Duration(r.WallNS).Round(time.Microsecond).String(),
			harness.F(int64(r.Aux1)),
			time.Duration(int64(r.Aux2)).Round(time.Microsecond).String(),
			time.Duration(int64(r.Aux3)).Round(time.Microsecond).String(),
			harness.F(r.Ratio), harness.F(int64(r.Bound)), status)
	}
	t.Flush()
}
