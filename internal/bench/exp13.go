package bench

import (
	"io"
	"runtime"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/fj"
	"repro/internal/harness"
	"repro/internal/rt"
)

// EXP13 is the real-hardware sweep: every real-backend kernel in the
// registry — the real lowering of the nine fj-unified sources (matmul,
// strassen, sortx, spms, scan, fft, transpose, gather, listrank), set up
// through FJKernel.Setup on a real fj.Env — runs on the internal/rt
// runtime over p ∈ {1, 2, 4, 8} in three arms:
//
//   - random/padded: random victims (RWS), hot worker/task state padded
//     to one cache line per contended word (the paper's §4.7 discipline
//     applied to the scheduler itself);
//   - random/compact: the same policy with all workers' deque indices,
//     counters and task frames packed so independent writes share lines;
//   - priority/padded: the PWS-flavoured victim rule (steal the shallowest
//     task) on the padded layout.
//
// The sweep picks the catalog up from registry.FJKernels, so kernels
// ported to fj join it automatically.  On a multi-core machine the compact
// arm pays coherence traffic for every push, steal and completion — the
// block-miss penalty the paper's lemmas bound, demonstrated on silicon
// rather than in the simulator.  Cells are Exclusive and rows Volatile;
// every row carries runtime.NumCPU() in Aux3 because on a single-core
// runner (the CI box) neither speedups nor the layout gap can show.
//
// Finish fills Aux1 = speedup over the same kernel/policy/layout at p=1
// and, on random-policy rows, Aux2 = wall(compact)/wall(padded) for the
// matching cell — the false-sharing penalty factor (>1 means padding won).

// statusNote reports a cell's verification outcome.
func statusNote(ok bool) string {
	if ok {
		return "ok"
	}
	return "WRONG RESULT"
}

// numCPU annotates wall-clock rows (Aux3) with the physical core count, so
// speedup claims read against what the runner could actually parallelize
// (on a 1-CPU box all speedups collapse to ~1 and the layout gap hides).
// It rides in a volatile-zeroed Aux column, not Note, so `-canon` output
// stays byte-identical across machines.
func numCPU() float64 { return float64(runtime.NumCPU()) }

// exp13Arms are the (victim policy, layout) arms of the sweep.
var exp13Arms = []struct {
	policy rt.Policy
	sched  string
	layout rt.Layout
}{
	{rt.Random, "random", rt.LayoutPadded},
	{rt.Random, "random", rt.LayoutCompact},
	{rt.Priority, "priority", rt.LayoutPadded},
}

func exp13Cells(p Params) []harness.Cell {
	procs := []int{1, 2, 4, 8}
	var cells []harness.Cell
	p.eachRepeat(func(rep int, seed uint64) {
		for _, k := range registry.FJKernels() {
			n := k.Size(p.Quick)
			for _, a := range exp13Arms {
				for _, pr := range procs {
					k, a, pr := k, a, pr
					cells = append(cells, harness.Cell{
						Exp: "EXP13", Label: k.Name + "/" + a.sched + "/" + a.layout.String(), Exclusive: true,
						Run: func() []harness.Row {
							work := k.Setup(fj.NewRealEnv(), int64(n), seed)
							pool := rt.NewPoolLayout(pr, a.policy, a.layout)
							start := time.Now() //lint:allow determinism wall-clock feeds WallNS and Volatile-row fields, all zeroed by Normalize for -canon
							fj.RunReal(pool, work.Root)
							el := time.Since(start)
							return []harness.Row{{
								Exp: "EXP13", Algo: k.Name, N: int64(n), P: pr,
								Sched: a.sched, Padded: a.layout == rt.LayoutPadded,
								Repeat: rep, Seed: seed,
								Steals: pool.Steals(), StealAttempts: pool.StealAttempts(),
								WallNS: el.Nanoseconds(), Volatile: true,
								Aux3: numCPU(), Note: statusNote(work.Verify()),
							}}
						},
					})
				}
			}
		}
	})
	return cells
}

func exp13Finish(rows []harness.Row) []harness.Row {
	for i, r := range rows {
		same := func(b harness.Row) bool {
			return b.Algo == r.Algo && b.Sched == r.Sched && b.Repeat == r.Repeat
		}
		base, ok := findRow(rows, func(b harness.Row) bool {
			return same(b) && b.P == 1 && b.Padded == r.Padded
		})
		if ok && r.WallNS > 0 {
			rows[i].Aux1 = float64(base.WallNS) / float64(r.WallNS)
		}
		pair, ok := findRow(rows, func(b harness.Row) bool {
			return same(b) && b.P == r.P && b.Padded != r.Padded
		})
		if ok {
			padded, compact := r, pair
			if !r.Padded {
				padded, compact = pair, r
			}
			if padded.WallNS > 0 {
				rows[i].Aux2 = float64(compact.WallNS) / float64(padded.WallNS)
			}
		}
	}
	return rows
}

func exp13Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP13 — real runtime sweep: victim policy × layout (padded vs compact)")
	t := harness.NewTable(w, "kernel", "n", "p", "policy", "layout", "time", "speedup", "compact/padded", "steals", "cpus", "status")
	for _, r := range rows {
		layout := "compact"
		if r.Padded {
			layout = "padded"
		}
		status := ""
		if r.Note != "ok" {
			status = r.Note
		}
		t.Line(r.Algo, harness.F(r.N), harness.F(r.P), r.Sched, layout,
			time.Duration(r.WallNS).Round(time.Microsecond).String(),
			harness.F(r.Aux1), harness.F(r.Aux2), harness.F(r.Steals),
			harness.F(int64(r.Aux3)), status)
	}
	t.Flush()
}
