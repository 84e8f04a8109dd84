package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/fj"
	"repro/internal/rt"
)

// realSizes fixes each fj kernel's real-lowering size: working sets run
// from inside L2 (matmul) to past it (scan, 8 MiB in+out).
var realSizes = map[string]int64{
	"matmul": 128, "strassen": 128, "sortx": 1 << 16, "spms": 1 << 16,
	"scan": 1 << 19, "fft": 1 << 13, "transpose": 512, "gather": 1 << 18, "listrank": 1 << 14,
}

// realCall is one timed kernel call with its Go allocation counts.
type realCall struct {
	wall          time.Duration
	allocs, bytes uint64
}

// realPass is one pass over all nine kernels.
type realPass struct {
	wall                     time.Duration // sum of the nine timed calls
	calls                    []realCall    // in catalog order
	allocs                   uint64
	steals, attempts, execed int64
	steal                    float64 // host steal share during the pass, %
}

// realBench holds the warmed pool the real-kernels phase runs on.
type realBench struct {
	pool    *rt.Pool
	kernels []registry.FJKernel
	seed    uint64
	next    uint64 // input counter: call i of the run gets seed+i
}

// newRealBench starts the pool and warms it (and the kernels' scratch
// arenas) with one untimed pass.
func newRealBench(seed uint64, t *tally) (*realBench, error) {
	b := &realBench{pool: rt.NewPool(runtime.NumCPU(), rt.Random), kernels: registry.FJKernels(), seed: seed * 1_000_003}
	for _, k := range b.kernels {
		if _, ok := realSizes[k.Name]; !ok {
			return nil, fmt.Errorf("real-kernels: no size for fj kernel %q", k.Name)
		}
	}
	b.pass(nil, t)
	return b, nil
}

// pass runs each kernel once on fresh seeded input.  It builds all nine
// inputs, collects the garbage of the previous pass, then times the nine
// fj.RunReal calls back to back and verifies them, so neither input
// generation nor the collection it triggers lands in a timed call.
func (b *realBench) pass(rec *recorder, t *tally) realPass {
	var p realPass
	works := make([]registry.FJWork, len(b.kernels))
	reqs := make([]int64, len(b.kernels))
	for i, k := range b.kernels {
		reqs[i] = rec.newReq()
		b.next++
		sp := rec.begin("registry.FJKernel.Setup", 0, reqs[i])
		works[i] = k.Setup(fj.NewRealEnv(), realSizes[k.Name], b.seed+b.next)
		rec.end(sp)
	}
	runtime.GC()

	s0, a0, e0 := b.pool.Steals(), b.pool.StealAttempts(), b.pool.Executed()
	for i, k := range b.kernels {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		call := rec.begin("fj.RunReal", 0, reqs[i])
		t0 := time.Now()
		fj.RunReal(b.pool, func(c *fj.Ctx) {
			root := rec.begin("algos."+k.Name, call.id, reqs[i])
			works[i].Root(c)
			rec.end(root)
		})
		d := time.Since(t0)
		rec.end(call)
		runtime.ReadMemStats(&m1)
		c := realCall{wall: d, allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
		p.calls = append(p.calls, c)
		p.wall += d
		p.allocs += c.allocs
	}
	p.steals = b.pool.Steals() - s0
	p.attempts = b.pool.StealAttempts() - a0
	p.execed = b.pool.Executed() - e0

	for i, k := range b.kernels {
		sp := rec.begin("registry.FJWork.Verify", 0, reqs[i])
		ok := works[i].Verify()
		rec.end(sp)
		var err error
		if !ok {
			err = fmt.Errorf("%s n=%d: Verify failed", k.Name, realSizes[k.Name])
		}
		t.op("real", err)
	}
	return p
}
