package bench

import (
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/model"
)

// exp02Base tags the p=1 rows.
const exp02Base = "base"

// EXP02 checks the paper's bound lemmas on the p and B axes, with every
// bound taken from the analytical model (internal/model).  Two quantities
// are checked, tagged in Note:
//
//	excess     extra cache misses at p>1 over the p=1 run vs
//	           model.StealExcess (Lemma 4.4 for the BP scans and MT,
//	           Lemma 4.1 for Strassen, FFT and Depth-n-MM)
//	blockmiss  block + upgrade misses vs model.FalseSharing
//	           (Lemmas 4.8/4.9/4.2)
//
// Every kernel runs at Sizes[1]: a p-sweep on the default machine, where
// each p>1 cell yields one row per quantity, and a B-sweep at p=8 with
// M/B = 64 fixed, which yields blockmiss rows only.  The p=1 rows (Note
// "base") are the serial baseline the excess rows subtract.  Bound = the
// model form with constant 1, Ratio = measured/Bound, Aux1 = measured,
// Aux2 = the model's envelope for the quantity; TestEXP02WithinEnvelope
// gates the ratios.
func exp02Cells(p Params) []harness.Cell {
	procs := []int{1, 2, 4, 8, 16}
	if p.Quick {
		procs = []int{1, 2, 8}
	}
	var cells []harness.Cell
	add := func(a Algo, n int64, spec Spec, notes ...string) {
		cells = append(cells, harness.Cell{
			Exp: "EXP02", Label: a.Name,
			Run: func() []harness.Row {
				r := measure("EXP02", a, n, spec)
				rows := make([]harness.Row, len(notes))
				for i, note := range notes {
					rows[i] = r
					rows[i].Note = note
				}
				return rows
			},
		})
	}
	excess, blockmiss := string(model.StealExcess), string(model.FalseSharing)
	p.eachRepeat(func(rep int, seed uint64) {
		for _, name := range []string{"Scan(M-Sum)", "Scan(PS)", "MT (BI)", "Strassen (BI)", "FFT", "Depth-n-MM"} {
			a, ok := FindAlgo(name)
			if !ok {
				panic(fmt.Sprintf("exp02: kernel %q not in the sim catalog", name))
			}
			n := a.Sizes[1]
			for _, pr := range procs {
				spec := stamp(DefaultSpec(pr), rep, seed)
				if pr == 1 {
					add(a, n, spec, exp02Base)
				} else {
					add(a, n, spec, excess, blockmiss)
				}
			}
			for _, B := range []int{8, 32} {
				spec := stamp(DefaultSpec(8), rep, seed)
				spec.B, spec.M = B, 64*B
				add(a, n, spec, blockmiss)
			}
		}
	})
	return cells
}

func exp02Finish(rows []harness.Row) []harness.Row {
	for i, r := range rows {
		q := model.Quantity(r.Note)
		var measured float64
		switch q {
		case model.StealExcess:
			base, ok := findRow(rows, func(b harness.Row) bool {
				return b.Note == exp02Base && b.Algo == r.Algo && b.N == r.N && b.Repeat == r.Repeat
			})
			if !ok {
				continue
			}
			measured = float64(r.CacheMisses - base.CacheMisses)
		case model.FalseSharing:
			measured = float64(r.BlockMisses + r.UpgradeMisses)
		default:
			continue
		}
		m, _ := model.For(r.Algo)
		rows[i].Bound = m.Predict(q, model.Params{N: r.N, P: r.P, M: r.M, B: r.B})
		rows[i].Ratio = measured / rows[i].Bound
		rows[i].Aux1 = measured
		rows[i].Aux2 = m.EnvelopeFor(q)
	}
	return rows
}

func exp02Render(w io.Writer, rows []harness.Row) {
	header(w, "EXP02 — Lemmas 4.1/4.4 (steal excess) and 4.2/4.8/4.9 (block misses) vs the model over p and B")
	t := harness.NewTable(w, "Algorithm", "n", "p", "B", "quantity",
		"measured", "bound", "ratio", "envelope", "status")
	for _, r := range rows {
		if r.Note == exp02Base {
			continue
		}
		t.Line(r.Algo, harness.F(r.N), harness.F(r.P), harness.F(r.B), r.Note,
			harness.F(int64(r.Aux1)), harness.F(int64(r.Bound)),
			harness.F(r.Ratio), harness.F(r.Aux2), envelopeStatus(model.Quantity(r.Note), r.Ratio, r.Aux2))
	}
	t.Flush()
}
