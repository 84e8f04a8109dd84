package model

import (
	"math"
	"testing"
)

var base = Params{N: 4096, P: 4, M: 1024, B: 16}

func TestEveryModelPositiveAndFinite(t *testing.T) {
	for _, name := range Names() {
		m, ok := For(name)
		if !ok {
			t.Fatalf("%s: not found", name)
		}
		for _, q := range append(Quantities(), FalseSharing) {
			v := m.Predict(q, base)
			if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("%s/%s: predict = %v, want positive finite", name, q, v)
			}
			if e := m.EnvelopeFor(q); !(e > 1) {
				t.Errorf("%s/%s: envelope %v, want > 1", name, q, e)
			}
		}
	}
}

func TestGrowthDirections(t *testing.T) {
	for _, name := range Names() {
		m, _ := For(name)
		bigger := base
		bigger.N *= 4
		if m.Predict(SeqQ, bigger) <= m.Predict(SeqQ, base) {
			t.Errorf("%s: SeqQ must grow with n", name)
		}
		moreProcs := base
		moreProcs.P *= 2
		for _, q := range []Quantity{StealExcess, BlockDelay} {
			if m.Predict(q, moreProcs) <= m.Predict(q, base) {
				t.Errorf("%s: %s must grow with p", name, q)
			}
		}
	}
}

func TestBlockDelayDominatesStealExcess(t *testing.T) {
	// BlockDelay = StealExcess + false-sharing term, so it must strictly
	// exceed the steal excess alone.
	for _, name := range Names() {
		m, _ := For(name)
		if m.Predict(BlockDelay, base) <= m.Predict(StealExcess, base) {
			t.Errorf("%s: BlockDelay must exceed StealExcess", name)
		}
	}
}

func TestFitCheckProtocol(t *testing.T) {
	// A fit point checks out exactly; scaling measured by the predicted
	// ratio keeps the check passing; breaking the envelope fails it.
	c := Fit(1000, 250) // c = 4
	if c != 4 {
		t.Fatalf("Fit = %v, want 4", c)
	}
	if ratio, ok := Check(SeqQ, 1000, 250, c, 2); !ok || ratio != 1 {
		t.Errorf("fit point: ratio %v ok %v, want 1 true", ratio, ok)
	}
	if ratio, ok := Check(SeqQ, 1900, 250, c, 2); !ok || ratio != 1.9 {
		t.Errorf("in-envelope: ratio %v ok %v, want 1.9 true", ratio, ok)
	}
	if _, ok := Check(SeqQ, 2100, 250, c, 2); ok {
		t.Error("ratio 2.1 must fail envelope 2")
	}
	if _, ok := Check(SeqQ, 400, 250, c, 2); ok {
		t.Error("ratio 0.4 must fail the two-sided seqQ envelope from below")
	}
	if _, ok := Check(StealExcess, 400, 250, c, 2); !ok {
		t.Error("undershooting an upper-bound lemma must pass")
	}
	if _, ok := Check(StealExcess, 2100, 250, c, 2); ok {
		t.Error("overshooting an upper-bound lemma must fail")
	}
}

func TestFitFloorsZeroMeasurement(t *testing.T) {
	c := Fit(0, 100)
	if c != 0.01 {
		t.Errorf("Fit(0, 100) = %v, want 0.01 (floored measured)", c)
	}
	if ratio, ok := Check(SeqQ, 0, 100, c, 2); !ok || ratio != 1 {
		t.Errorf("zero measurement must self-check: ratio %v ok %v", ratio, ok)
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, ok := For("nope"); ok {
		t.Error("bogus model found")
	}
}

func TestStrassenLevels(t *testing.T) {
	p := Params{N: 64, M: 1024, B: 16, P: 4}
	// n² = 4096: 4096 → 1024 stops after one reduction... levels counts
	// iterations until m ≤ M: 4096 > 1024 → one halving step plus the
	// initial level.
	if got := strassenLevels(p); got != 2 {
		t.Errorf("strassenLevels(n=64, M=1024) = %v, want 2", got)
	}
	p.N = 16 // n² = 256 ≤ M: single level
	if got := strassenLevels(p); got != 1 {
		t.Errorf("strassenLevels(n=16, M=1024) = %v, want 1", got)
	}
}
