package bench_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/model"
)

// TestEXP02WithinEnvelope gates the p and B axes of the bound lemmas: every
// p>1 row of the quick grid must keep measured/(model form) inside the
// model's envelope for its quantity, and every kernel must report both the
// steal excess and the false-sharing block misses.
func TestEXP02WithinEnvelope(t *testing.T) {
	e, ok := bench.FindExperiment("EXP02")
	if !ok {
		t.Fatal("EXP02 not registered")
	}
	rows := e.Rows(bench.Params{Quick: true}, 1)
	seen := map[string]map[model.Quantity]int{}
	for _, r := range rows {
		if r.P == 1 {
			continue
		}
		q := model.Quantity(r.Note)
		if seen[r.Algo] == nil {
			seen[r.Algo] = map[model.Quantity]int{}
		}
		seen[r.Algo][q]++
		m, ok := model.For(r.Algo)
		if !ok {
			t.Errorf("%s: no model", r.Algo)
			continue
		}
		if env := m.EnvelopeFor(q); r.Aux2 != env || !model.CheckRatio(q, r.Ratio, env) {
			t.Errorf("%s %s n=%d p=%d B=%d: ratio %.3f (measured %.0f, bound %.0f) vs envelope %.1f (row says %.1f)",
				r.Algo, q, r.N, r.P, r.B, r.Ratio, r.Aux1, r.Bound, env, r.Aux2)
		}
	}
	for _, name := range []string{"Scan(M-Sum)", "Scan(PS)", "MT (BI)", "Strassen (BI)", "FFT", "Depth-n-MM"} {
		for _, q := range []model.Quantity{model.StealExcess, model.FalseSharing} {
			if seen[name][q] == 0 {
				t.Errorf("%s: no %s rows", name, q)
			}
		}
	}
}
