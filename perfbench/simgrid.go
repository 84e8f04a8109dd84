package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/algos/registry"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/trace"
)

// simCounts are the exact simulator counts one cell produces.  At a fixed
// seed they repeat bit for bit; a change in any of them means the
// simulated program changed.
type simCounts struct {
	Work           int64   `json:"work"`
	CritPath       int64   `json:"crit_path"`
	Makespan       int64   `json:"makespan"`
	Reads          int64   `json:"reads"`
	Writes         int64   `json:"writes"`
	Hits           int64   `json:"hits"`
	ColdMisses     int64   `json:"cold_misses"`
	BlockMisses    int64   `json:"block_misses"`
	UpgradeMisses  int64   `json:"upgrade_misses"`
	BlockTransfers int64   `json:"block_transfers"`
	Steals         int64   `json:"steals"`
	StealAttempts  int64   `json:"steal_attempts"`
	AuxF           int64   `json:"aux_f,omitempty"`   // traced: max f-excess
	AuxL           int64   `json:"aux_l,omitempty"`   // traced: max L-shared
	AuxBal         float64 `json:"aux_bal,omitempty"` // traced: balance ratio
}

func countsOf(res core.Result) simCounts {
	return simCounts{
		Work: res.Work, CritPath: res.CritPath, Makespan: res.Makespan,
		Reads: res.Total.Reads, Writes: res.Total.Writes, Hits: res.Total.Hits,
		ColdMisses: res.Total.ColdMisses, BlockMisses: res.Total.BlockMisses,
		UpgradeMisses: res.Total.UpgradeMisses, BlockTransfers: res.BlockTransfers,
		Steals: res.Steals, StealAttempts: res.StealAttempts,
	}
}

// Cell kinds: which layer the cell's Engine.Run is attributed to.
const (
	kindTable1 = "table1" // hand-built Table-1 tree, untraced
	kindTraced = "traced" // hand-built Table-1 tree with trace.Attach
	kindFJ     = "fj"     // fj sim lowering
)

// simCell is one (kernel, n, p) simulator run.
type simCell struct {
	Name      string
	Kind      string
	P         int
	N         int64
	Oblivious bool // counts do not depend on the seed
	table1    *registry.SimKernel
	fjk       *registry.FJKernel
}

// dataDependent are the Table-1 kernels whose access pattern follows the
// input values; every other Table-1 kernel is data-oblivious.
var dataDependent = map[string]bool{"Sort (HBP-MS)": true, "LR": true, "CC": true}

// simGridCells is the sim-grid pass: every Table-1 kernel at its middle
// size on p=8, EXP01's traced cells (every Table-1 kernel but LR and CC at
// its smallest size on p=4), and every fj kernel's sim lowering at its
// largest sim size on p=8.
func simGridCells() []simCell {
	var cells []simCell
	t1 := registry.SimKernels()
	for i := range t1 {
		k := &t1[i]
		n := k.Sizes[len(k.Sizes)/2]
		cells = append(cells, simCell{Name: fmt.Sprintf("%s/n=%d/p=8", k.Name, n), Kind: kindTable1,
			P: 8, N: n, Oblivious: !dataDependent[k.Name], table1: k})
	}
	for i := range t1 {
		k := &t1[i]
		if k.Name == "LR" || k.Name == "CC" {
			continue
		}
		cells = append(cells, simCell{Name: fmt.Sprintf("%s/n=%d/p=4/traced", k.Name, k.Sizes[0]), Kind: kindTraced,
			P: 4, N: k.Sizes[0], Oblivious: !dataDependent[k.Name], table1: k})
	}
	fjs := registry.FJKernels()
	for i := range fjs {
		f := &fjs[i]
		n := f.SimSizes[len(f.SimSizes)-1]
		cells = append(cells, simCell{Name: fmt.Sprintf("fj:%s/n=%d/p=8", f.Name, n), Kind: kindFJ,
			P: 8, N: n, fjk: f})
	}
	return cells
}

// simProbeCells is the reduced list the other workloads run so that every
// run reports the sim metrics: the Table-1 kernels but LR and CC at their
// smallest size on p=8, Depth-n-MM's traced cell, and every fj kernel but
// spms at its smallest sim size on p=8.  spms is left out because its
// simulated work varies up to 1.7× with the input seed and would be half
// the probe; the full sim-grid pass keeps it.
func simProbeCells() []simCell {
	var cells []simCell
	t1 := registry.SimKernels()
	for i := range t1 {
		k := &t1[i]
		if k.Name == "LR" || k.Name == "CC" {
			continue
		}
		cells = append(cells, simCell{Name: fmt.Sprintf("%s/n=%d/p=8", k.Name, k.Sizes[0]), Kind: kindTable1,
			P: 8, N: k.Sizes[0], Oblivious: !dataDependent[k.Name], table1: k})
		if k.Name == "Depth-n-MM" {
			cells = append(cells, simCell{Name: fmt.Sprintf("%s/n=%d/p=4/traced", k.Name, k.Sizes[0]), Kind: kindTraced,
				P: 4, N: k.Sizes[0], Oblivious: true, table1: k})
		}
	}
	fjs := registry.FJKernels()
	for i := range fjs {
		f := &fjs[i]
		if f.Name == "spms" {
			continue
		}
		cells = append(cells, simCell{Name: fmt.Sprintf("fj:%s/n=%d/p=8", f.Name, f.SimSizes[0]), Kind: kindFJ,
			P: 8, N: f.SimSizes[0], fjk: f})
	}
	return cells
}

// simLayerTimes is where one pass spent its time, by layer call.
type simLayerTimes struct {
	build, run, runFJ, runTraced, measure time.Duration
	alloc                                 goStats // Go runtime deltas around Build and Run
}

func (a *simLayerTimes) add(b simLayerTimes) {
	a.build += b.build
	a.run += b.run
	a.runFJ += b.runFJ
	a.runTraced += b.runTraced
	a.measure += b.measure
	a.alloc.add(b.alloc)
}

// runCell executes one cell on a fresh bench.DefaultSpec machine.
func runCell(c simCell, seed uint64, rec *recorder, req int64) (simCounts, simLayerTimes, error) {
	var lt simLayerTimes
	cellSpan := rec.begin("sim.cell", 0, req)
	defer rec.end(cellSpan)

	spec := bench.DefaultSpec(c.P)
	m := machine.New(machine.Config{P: spec.P, M: spec.M, B: spec.B, MissLatency: spec.MissLatency})

	g0 := readGoStats()
	sp := rec.begin("registry.Build", cellSpan.id, req)
	t0 := time.Now()
	var root *core.Node
	var work registry.FJWork
	if c.Kind == kindFJ {
		work = c.fjk.Setup(fj.NewSimEnv(m), c.N, seed)
		root = fj.SimNode(c.fjk.InputWords(c.N), c.fjk.Name, work.Root)
	} else {
		root = c.table1.Build(m, c.N, seed)
	}
	lt.build = time.Since(t0)
	rec.end(sp)

	eng := core.NewEngine(m, sched.NewPWS(), core.Options{Padded: spec.Padded})
	var tr *trace.Tracer
	if c.Kind == kindTraced {
		tr = &trace.Tracer{SampleMinSize: 2}
		trace.Attach(eng, tr)
	}
	sp = rec.begin("core.Engine.Run", cellSpan.id, req)
	t0 = time.Now()
	res := eng.Run(root)
	d := time.Since(t0)
	rec.end(sp)
	lt.alloc = readGoStats().sub(g0)
	switch c.Kind {
	case kindFJ:
		lt.runFJ = d
	case kindTraced:
		lt.runTraced = d
	default:
		lt.run = d
	}

	cnt := countsOf(res)
	if tr != nil {
		sp = rec.begin("trace.Tracer.measure", cellSpan.id, req)
		t0 = time.Now()
		for _, pt := range tr.LMeasure() {
			cnt.AuxL = max(cnt.AuxL, pt.Shared)
		}
		cnt.AuxF = tr.MaxFExcess(int64(spec.B))
		cnt.AuxBal = tr.BalanceRatio(4)
		lt.measure = time.Since(t0)
		rec.end(sp)
	}
	if c.Kind == kindFJ {
		sp = rec.begin("registry.FJWork.Verify", cellSpan.id, req)
		ok := work.Verify()
		rec.end(sp)
		if !ok {
			return cnt, lt, fmt.Errorf("%s: FJWork.Verify failed", c.Name)
		}
	}
	return cnt, lt, nil
}

//go:embed simgrid_golden.json
var simGoldenJSON []byte

// simGolden maps a cell name to its counts at the default seed.
type simGolden map[string]simCounts

func loadSimGolden() (simGolden, error) {
	g := simGolden{}
	if err := json.Unmarshal(simGoldenJSON, &g); err != nil {
		return nil, fmt.Errorf("simgrid_golden.json: %w", err)
	}
	return g, nil
}

// check compares a cell's counts with the committed table: every cell at
// the default seed, only the data-oblivious ones at another seed.  An fj
// cell at another seed is covered by its FJWork.Verify alone.
func (g simGolden) check(c simCell, seed uint64, got simCounts) error {
	if seed != defaultSeed && !c.Oblivious {
		return nil
	}
	want, ok := g[c.Name]
	if !ok {
		return fmt.Errorf("%s: no row in simgrid_golden.json", c.Name)
	}
	if got != want {
		return fmt.Errorf("%s: counts %+v, table says %+v", c.Name, got, want)
	}
	return nil
}

// writeSimGolden runs the sim-grid and probe cells once at the default
// seed and writes their counts as the committed table.
func writeSimGolden(path string) error {
	g := simGolden{}
	for _, c := range append(simGridCells(), simProbeCells()...) {
		cnt, _, err := runCell(c, defaultSeed, nil, 0)
		if err != nil {
			return err
		}
		g[c.Name] = cnt
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// simPass is one pass over a cell list.
type simPass struct {
	wall     time.Duration // summed over the cells, the collections between them left out
	steal    float64       // host steal share during the pass, %
	accesses int64         // simulated reads + writes
	totals   simCounts
	layers   simLayerTimes
}

// runSimPass runs every cell once, checking each against the table.
// Each cell starts from a collected heap, as each starts on a fresh
// machine: the pass's peak resident set is then its largest cell's, not
// an accident of where the collector's cycles fell among the cells.  The
// collections between cells are not timed.
func runSimPass(cells []simCell, seed uint64, golden simGolden, rec *recorder, t *tally) simPass {
	var p simPass
	for _, c := range cells {
		runtime.GC()
		t0 := time.Now()
		cnt, lt, err := runCell(c, seed, rec, rec.newReq())
		p.wall += time.Since(t0)
		if err == nil {
			err = golden.check(c, seed, cnt)
		}
		t.op("sim", err)
		p.accesses += cnt.Reads + cnt.Writes
		p.totals.Reads += cnt.Reads
		p.totals.Writes += cnt.Writes
		p.totals.Hits += cnt.Hits
		p.totals.ColdMisses += cnt.ColdMisses
		p.totals.BlockMisses += cnt.BlockMisses
		p.totals.UpgradeMisses += cnt.UpgradeMisses
		p.totals.BlockTransfers += cnt.BlockTransfers
		p.totals.Steals += cnt.Steals
		p.totals.StealAttempts += cnt.StealAttempts
		p.layers.add(lt)
	}
	return p
}
