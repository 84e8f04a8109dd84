package main

import (
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/rt"
)

// Layer baselines measured from outside: numbers for rt and the sim
// substrate that do not depend on any kernel.

// treeDepth gives the fork/join baselines 2^12 leaves.
const treeDepth = 12

// forkJoinTree runs an empty binary Ctx.Parallel tree with 2^depth leaves.
func forkJoinTree(c *rt.Ctx, depth int) {
	if depth == 0 {
		return
	}
	c.Parallel(func(c *rt.Ctx) { forkJoinTree(c, depth-1) }, func(c *rt.Ctx) { forkJoinTree(c, depth-1) })
}

// goroutineTree is forkJoinTree's twin on Go's own scheduler: the right
// child runs on a new goroutine, the left inline, joined by a WaitGroup.
// It is the baseline for what rt's deques buy over plain goroutines.
func goroutineTree(depth int) {
	if depth == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		goroutineTree(depth - 1)
	}()
	goroutineTree(depth - 1)
	wg.Wait()
}

// medianOf times f reps times and returns the median duration.
func medianOf(reps int, f func()) time.Duration {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
}

// perOp times batches of ops calls of f(i) and returns the median
// nanoseconds per call.
func perOp(batches, ops int, f func(i int)) float64 {
	xs := make([]float64, batches)
	for b := range xs {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			f(b*ops + i)
		}
		xs[b] = float64(time.Since(t0)) / float64(ops)
	}
	return median(xs)
}

// baselines are the layer baselines of one traced run.
type baselines struct {
	runEmptyUS, forkJoinUS, goTreeUS float64
	touchNS, insertNS                float64
	readHitNS, readStreamNS          float64
}

// measureBaselines times the empty Pool.Run, the empty fork/join tree and
// its goroutine twin on pool, and the cache/machine micro-operations
// (ported from the root package's substrate benchmarks).
func measureBaselines(pool *rt.Pool, rec *recorder) baselines {
	var b baselines
	sp := rec.begin("baseline.rt", 0, rec.newReq())
	b.runEmptyUS = us(medianOf(401, func() { pool.Run(func(*rt.Ctx) {}) }))
	b.forkJoinUS = us(medianOf(101, func() { pool.Run(func(c *rt.Ctx) { forkJoinTree(c, treeDepth) }) }))
	b.goTreeUS = us(medianOf(101, func() { goroutineTree(treeDepth) }))
	rec.end(sp)

	sp = rec.begin("baseline.sim", 0, rec.newReq())
	hit := cache.NewSet(64)
	hit.Insert(1)
	b.touchNS = perOp(21, 1<<16, func(int) { hit.Touch(1) })
	evict := cache.NewSet(64)
	b.insertNS = perOp(21, 1<<15, func(i int) { evict.Insert(int64(i)) })

	m := machine.New(machine.Default(1))
	a := mem.NewArray(m.Space, 8)
	p := m.Procs[0]
	p.Write(a.Addr(0), 42)
	b.readHitNS = perOp(21, 1<<16, func(int) { p.Read(a.Addr(0)) })
	const streamN = 1 << 16
	m2 := machine.New(machine.Default(1))
	s := mem.NewArray(m2.Space, streamN)
	p2 := m2.Procs[0]
	b.readStreamNS = perOp(21, 1<<15, func(i int) { p2.Read(s.Addr(int64(i) & (streamN - 1))) })
	rec.end(sp)
	return b
}
