package fj

import "repro/internal/rt"

// Real lowering: on hardware an fj computation is just the rt runtime with a
// thin adapter — Fork/Join/Parallel delegate to rt.Ctx, view accesses index
// native slices.  Per-task bookkeeping (the adapter closure and the Ctx it
// hands the body) lives in pooled per-worker frames (scratch.go), so only
// the root of each Run allocates; the overhead guard in the root
// bench_fj_test.go keeps the lowering honest against the hand-written rt
// kernels it replaced.

// RunReal executes root on the pool and blocks until it completes.
func RunReal(pool *rt.Pool, root func(*Ctx)) {
	pool.Run(func(rc *rt.Ctx) { root(&Ctx{rc: rc}) })
}
