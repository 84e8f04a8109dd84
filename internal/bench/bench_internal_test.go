package bench

import (
	"strings"
	"testing"
)

func TestCatalogIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Catalog() {
		if a.Name == "" || seen[a.Name] {
			t.Errorf("duplicate or empty algorithm name %q", a.Name)
		}
		seen[a.Name] = true
		if len(a.Sizes) < 2 {
			t.Errorf("%s: need ≥2 sizes for growth ratios", a.Name)
		}
		for i := 1; i < len(a.Sizes); i++ {
			if a.Sizes[i] <= a.Sizes[i-1] {
				t.Errorf("%s: sizes not increasing", a.Name)
			}
		}
		if a.Build == nil || a.InputWords == nil {
			t.Errorf("%s: missing Build/InputWords", a.Name)
		}
	}
	if len(seen) != 13 {
		t.Errorf("catalog has %d algorithms, want 13 (Table 1)", len(seen))
	}
}

func TestFindAlgo(t *testing.T) {
	if _, ok := FindAlgo("FFT"); !ok {
		t.Error("FFT not found")
	}
	if _, ok := FindAlgo("nope"); ok {
		t.Error("bogus name found")
	}
}

func TestExperimentsRegistered(t *testing.T) {
	exps := Experiments()
	// EXP01–EXP16 without EXP03/EXP04, folded into EXP02's p/B sweep, and
	// EXP12, which EXP13's priority arm replaces.
	if len(exps) != 13 {
		t.Fatalf("%d experiments registered, want 13", len(exps))
	}
	for _, e := range exps {
		if e.Backend != "sim" && e.Backend != "real" {
			t.Errorf("%s: backend %q not in the registry vocabulary", e.ID, e.Backend)
		}
	}
	for i, e := range exps {
		if e.Cells == nil || e.Render == nil {
			t.Errorf("%s has no cell builder or renderer", e.ID)
		}
		if !strings.HasPrefix(e.ID, "EXP") {
			t.Errorf("bad id %q at %d", e.ID, i)
		}
	}
	if _, ok := FindExperiment("EXP06"); !ok {
		t.Error("EXP06 not found")
	}
	if _, ok := FindExperiment("EXP99"); ok {
		t.Error("bogus experiment found")
	}
}

func TestRepeatsProduceDistinctSeededRows(t *testing.T) {
	e, _ := FindExperiment("EXP05")
	rows := e.Rows(Params{Quick: true, Repeats: 2, Seed: 7}, 1)
	var r0, r1 int
	for _, r := range rows {
		switch r.Repeat {
		case 0:
			r0++
			if r.Seed != 7 {
				t.Errorf("repeat 0 row has seed %d, want 7", r.Seed)
			}
		case 1:
			r1++
			if r.Seed != 8 {
				t.Errorf("repeat 1 row has seed %d, want 8", r.Seed)
			}
		}
	}
	if r0 == 0 || r0 != r1 {
		t.Errorf("repeat row counts %d/%d, want equal and non-zero", r0, r1)
	}
}

func TestSeedChangesInputs(t *testing.T) {
	a, _ := FindAlgo("Sort (HBP-MS)")
	s1 := DefaultSpec(4)
	s2 := DefaultSpec(4)
	s2.Seed = 99
	r1, r2 := Run(a, 1024, s1), Run(a, 1024, s2)
	if r1.Makespan == r2.Makespan && r1.Total.ColdMisses == r2.Total.ColdMisses {
		t.Error("different seeds produced identical runs; seed is not threaded into inputs")
	}
}

func TestRunSmallestScan(t *testing.T) {
	// One end-to-end run through the harness path used by every driver.
	a, _ := FindAlgo("Scan(M-Sum)")
	res := Run(a, 4096, DefaultSpec(4))
	if res.Work == 0 || res.Total.ColdMisses == 0 {
		t.Error("empty result from harness run")
	}
	if res.Scheduler != "PWS" {
		t.Errorf("scheduler %q", res.Scheduler)
	}
	rws := DefaultSpec(4)
	rws.Sched = "rws"
	res2 := Run(a, 4096, rws)
	if res2.Scheduler != "RWS" {
		t.Errorf("scheduler %q", res2.Scheduler)
	}
}

// TestDefaultSpecPinned pins the default machine: every experiment and the
// perfbench sim grid run on it, so a change here moves their counts.
func TestDefaultSpecPinned(t *testing.T) {
	want := Spec{P: 4, M: 1024, B: 16, MissLatency: 8, Sched: "pws", Padded: false}
	if got := DefaultSpec(4); got != want {
		t.Errorf("DefaultSpec(4) = %+v, want %+v", got, want)
	}
}

func TestDeterministicInputs(t *testing.T) {
	// Same seed → same generated inputs → identical results.
	a, _ := FindAlgo("Sort (HBP-MS)")
	r1 := Run(a, 1024, DefaultSpec(4))
	r2 := Run(a, 1024, DefaultSpec(4))
	if r1.Makespan != r2.Makespan || r1.Work != r2.Work {
		t.Error("harness runs are not reproducible")
	}
}
