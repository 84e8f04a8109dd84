package bench_test

// EXP15 acceptance: the SPMS kernel's measured sim depth must fit its
// worst-case c·log n·log log n form with ratio ≤ 1.0 on EVERY adversarial
// input arm (all-equal, pre-sorted, reverse-sorted, organ-pipe, few
// distinct keys, uniform random), and must sit below the merge-sort
// stand-in's depth at every (arm, size) — the structural improvement the
// k-way sample-partition merge exists to deliver.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/harness"
)

// exp15GateEps mirrors the experiment's roundoff guard at the fit point,
// where ratio is 1.0 by construction.
const exp15GateEps = 1e-9

// exp15Grid builds the EXP15 grid once for every test that reads it.
var exp15Grid struct {
	once sync.Once
	rows []harness.Row
}

func exp15Rows(t *testing.T) []harness.Row {
	t.Helper()
	e, ok := bench.FindExperiment("EXP15")
	if !ok {
		t.Fatal("EXP15 not registered")
	}
	exp15Grid.once.Do(func() {
		exp15Grid.rows = e.Rows(bench.Params{Quick: testing.Short()}, 1)
	})
	if len(exp15Grid.rows) == 0 {
		t.Fatal("EXP15 produced no rows")
	}
	return exp15Grid.rows
}

// exp15ArmOf mirrors the experiment's note schema ("depth:<arm>").
func exp15ArmOf(t *testing.T, r harness.Row) string {
	t.Helper()
	arm, ok := strings.CutPrefix(r.Note, "depth:")
	if !ok || arm == "" {
		t.Fatalf("%s n=%d: malformed depth note %q", r.Algo, r.N, r.Note)
	}
	return arm
}

func TestEXP15DepthWithinEnvelope(t *testing.T) {
	arms := map[string]bool{}
	for _, r := range exp15Rows(t) {
		arm := exp15ArmOf(t, r)
		arms[arm] = true
		if r.Bound <= 0 || r.Aux2 < 1 {
			t.Errorf("%s arm=%s n=%d: malformed depth row (bound=%v envelope=%v)",
				r.Algo, arm, r.N, r.Bound, r.Aux2)
			continue
		}
		if r.Ratio > r.Aux2*(1+exp15GateEps) {
			t.Errorf("%s arm=%s n=%d: depth %d is %.3f× the fitted worst-case form (envelope %.1f)",
				r.Algo, arm, r.N, r.CritPath, r.Ratio, r.Aux2)
		}
	}
	for _, want := range []string{"rand", "equal", "sorted", "reverse", "organ", "fewkeys"} {
		if !arms[want] {
			t.Errorf("adversarial arm %q missing from the EXP15 sweep", want)
		}
	}
}

func TestEXP15SpmsDepthBelowSortx(t *testing.T) {
	type cell struct {
		arm string
		n   int64
	}
	depth := map[string]map[cell]int64{}
	for _, r := range exp15Rows(t) {
		if depth[r.Algo] == nil {
			depth[r.Algo] = map[cell]int64{}
		}
		depth[r.Algo][cell{exp15ArmOf(t, r), r.N}] = r.CritPath
	}
	common := 0
	for k, s := range depth["spms"] {
		x, ok := depth["sortx"][k]
		if !ok {
			continue
		}
		common++
		if s >= x {
			t.Errorf("arm=%s n=%d: spms depth %d is not below sortx depth %d", k.arm, k.n, s, x)
		}
	}
	if common == 0 {
		t.Fatal("no common (arm, size) cells between spms and sortx")
	}
}
