package bench_test

// Golden determinism tests: every experiment's quick-mode row set must be
// byte-identical whether the grid runs serially or on an 8-worker pool.
// Rows are normalized first (wall-clock fields zeroed everywhere, all
// measurements zeroed on Volatile rows — EXP13's wall-clock cells), which
// is exactly what `hbpbench -canon` emits for cross-PR diffing.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/harness"
)

// goldenJSONL renders normalized rows to canonical bytes.
func goldenJSONL(t *testing.T, rows []harness.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := harness.WriteJSONL(&buf, harness.Normalize(rows)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenRowsIdenticalAcrossParallelism(t *testing.T) {
	params := bench.Params{Quick: true}
	for _, e := range bench.Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serialRows := e.Rows(params, 1)
			parallelRows := e.Rows(params, 8)
			if len(serialRows) == 0 {
				t.Fatalf("%s: no rows", e.ID)
			}
			// Row identity every emitter keys on: each experiment tags its
			// own rows, every row names an algorithm, and a single-repeat
			// run stays at repeat 0 / seed 0.
			for i, r := range parallelRows {
				if r.Exp != e.ID {
					t.Errorf("row %d tagged %q", i, r.Exp)
				}
				if r.Algo == "" {
					t.Errorf("row %d has no algorithm", i)
				}
				if r.Repeat != 0 || r.Seed != 0 {
					t.Errorf("row %d has repeat %d seed %d, want 0/0", i, r.Repeat, r.Seed)
				}
			}
			serial := goldenJSONL(t, serialRows)
			parallel := goldenJSONL(t, parallelRows)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("normalized rows differ between -parallel 1 and -parallel 8\nserial:\n%s\nparallel:\n%s",
					firstDiff(serial, parallel), firstDiff(parallel, serial))
			}
		})
	}
}

// firstDiff returns the first line of a that differs from b, for readable
// failure output.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range al {
		if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: %s", i+1, al[i])
		}
	}
	return "(prefix equal; lengths differ)"
}
