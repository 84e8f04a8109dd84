package harness

import (
	"fmt"
	"math"
	"strconv"
)

// Row is the typed record one grid cell produces per measurement — the flat,
// diffable unit every emitter (text, CSV, JSON lines) renders.  Identity
// fields come first (they key aggregation across repeats); then the
// simulator's paper quantities; then experiment-specific derived values.
//
// Aux1..Aux3 carry per-experiment extras (EXPERIMENTS.md documents the
// meaning for each EXP id).  Volatile marks rows whose measurements depend on
// wall-clock scheduling (EXP13); Normalize zeroes those plus WallNS so row
// sets can be compared byte-for-byte across runs and parallelism levels.
type Row struct {
	Exp    string
	Algo   string
	N      int64
	P      int
	M      int
	B      int
	Sched  string
	Padded bool
	Repeat int
	Seed   uint64

	Makespan         int64
	Work             int64
	CritPath         int64
	CacheMisses      int64 // cold + capacity (the serial-charged misses)
	BlockMisses      int64 // coherence re-fetches (false sharing)
	UpgradeMisses    int64
	BlockWait        int64
	Transfers        int64 // total directory block transfers (Definition 2.2)
	Steals           int64
	StealAttempts    int64
	MaxStealsPerPrio int64
	DistinctPrios    int64
	Usurpations      int64
	StackHighWater   int64
	IdleTime         int64

	Bound float64 // the paper formula value the row is checked against (0 = none)
	Ratio float64 // measured/bound or the experiment's headline ratio (may be NaN)
	Aux1  float64
	Aux2  float64
	Aux3  float64

	WallNS   int64 // wall-clock nanoseconds for this cell's measurement
	Volatile bool  // measurements depend on real scheduling, not just the seed
	Note     string
}

// Key returns the aggregation identity: everything that names a grid cell
// except the repeat index and seed.
func (r Row) Key() string {
	return fmt.Sprintf("%s|%s|%d|%d|%d|%d|%s|%v|%s",
		r.Exp, r.Algo, r.N, r.P, r.M, r.B, r.Sched, r.Padded, r.Note)
}

// Normalize returns a copy of rows with wall-clock fields zeroed everywhere
// and all measurement fields zeroed on Volatile rows.  Normalized row sets
// from the same grid and seed are byte-identical regardless of -parallel.
func Normalize(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		r.WallNS = 0
		if r.Volatile {
			r.Makespan, r.Work, r.CritPath = 0, 0, 0
			r.CacheMisses, r.BlockMisses, r.UpgradeMisses, r.BlockWait = 0, 0, 0, 0
			r.Transfers = 0
			r.Steals, r.StealAttempts, r.MaxStealsPerPrio = 0, 0, 0
			r.DistinctPrios, r.Usurpations, r.StackHighWater, r.IdleTime = 0, 0, 0, 0
			r.Bound, r.Ratio, r.Aux1, r.Aux2, r.Aux3 = 0, 0, 0, 0, 0
		}
		out[i] = r
	}
	return out
}

// kind tags a column's value type in the schema table.
type kind int

const (
	kString kind = iota
	kInt
	kUint
	kFloat
	kBool
)

// column is one entry in the Row schema: a stable name plus typed accessors.
// The table drives both emitters and both parsers, so the schema cannot
// drift between formats.
type column struct {
	name string
	kind kind
	get  func(*Row) any
	set  func(*Row, any)
}

func intCol(name string, f func(*Row) *int64) column {
	return column{name, kInt,
		func(r *Row) any { return *f(r) },
		func(r *Row, v any) { *f(r) = v.(int64) }}
}

func columns() []column {
	return []column{
		{"exp", kString, func(r *Row) any { return r.Exp }, func(r *Row, v any) { r.Exp = v.(string) }},
		{"algo", kString, func(r *Row) any { return r.Algo }, func(r *Row, v any) { r.Algo = v.(string) }},
		intCol("n", func(r *Row) *int64 { return &r.N }),
		{"p", kInt, func(r *Row) any { return int64(r.P) }, func(r *Row, v any) { r.P = int(v.(int64)) }},
		{"m", kInt, func(r *Row) any { return int64(r.M) }, func(r *Row, v any) { r.M = int(v.(int64)) }},
		{"b", kInt, func(r *Row) any { return int64(r.B) }, func(r *Row, v any) { r.B = int(v.(int64)) }},
		{"sched", kString, func(r *Row) any { return r.Sched }, func(r *Row, v any) { r.Sched = v.(string) }},
		{"padded", kBool, func(r *Row) any { return r.Padded }, func(r *Row, v any) { r.Padded = v.(bool) }},
		{"repeat", kInt, func(r *Row) any { return int64(r.Repeat) }, func(r *Row, v any) { r.Repeat = int(v.(int64)) }},
		{"seed", kUint, func(r *Row) any { return r.Seed }, func(r *Row, v any) { r.Seed = v.(uint64) }},
		intCol("makespan", func(r *Row) *int64 { return &r.Makespan }),
		intCol("work", func(r *Row) *int64 { return &r.Work }),
		intCol("critpath", func(r *Row) *int64 { return &r.CritPath }),
		intCol("cache_misses", func(r *Row) *int64 { return &r.CacheMisses }),
		intCol("block_misses", func(r *Row) *int64 { return &r.BlockMisses }),
		intCol("upgrade_misses", func(r *Row) *int64 { return &r.UpgradeMisses }),
		intCol("block_wait", func(r *Row) *int64 { return &r.BlockWait }),
		intCol("transfers", func(r *Row) *int64 { return &r.Transfers }),
		intCol("steals", func(r *Row) *int64 { return &r.Steals }),
		intCol("steal_attempts", func(r *Row) *int64 { return &r.StealAttempts }),
		intCol("max_steals_per_prio", func(r *Row) *int64 { return &r.MaxStealsPerPrio }),
		intCol("distinct_prios", func(r *Row) *int64 { return &r.DistinctPrios }),
		intCol("usurpations", func(r *Row) *int64 { return &r.Usurpations }),
		intCol("stack_high_water", func(r *Row) *int64 { return &r.StackHighWater }),
		intCol("idle_time", func(r *Row) *int64 { return &r.IdleTime }),
		{"bound", kFloat, func(r *Row) any { return r.Bound }, func(r *Row, v any) { r.Bound = v.(float64) }},
		{"ratio", kFloat, func(r *Row) any { return r.Ratio }, func(r *Row, v any) { r.Ratio = v.(float64) }},
		{"aux1", kFloat, func(r *Row) any { return r.Aux1 }, func(r *Row, v any) { r.Aux1 = v.(float64) }},
		{"aux2", kFloat, func(r *Row) any { return r.Aux2 }, func(r *Row, v any) { r.Aux2 = v.(float64) }},
		{"aux3", kFloat, func(r *Row) any { return r.Aux3 }, func(r *Row, v any) { r.Aux3 = v.(float64) }},
		intCol("wall_ns", func(r *Row) *int64 { return &r.WallNS }),
		{"volatile", kBool, func(r *Row) any { return r.Volatile }, func(r *Row, v any) { r.Volatile = v.(bool) }},
		{"note", kString, func(r *Row) any { return r.Note }, func(r *Row, v any) { r.Note = v.(string) }},
	}
}

// Header returns the column names in schema order.
func Header() []string {
	cols := columns()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.name
	}
	return names
}

// formatValue renders a typed column value for CSV ("NaN"/"+Inf"/"-Inf" for
// non-finite floats; encoding/csv handles quoting).
func formatValue(k kind, v any) string {
	switch k {
	case kString:
		return v.(string)
	case kInt:
		return strconv.FormatInt(v.(int64), 10)
	case kUint:
		return strconv.FormatUint(v.(uint64), 10)
	case kBool:
		return strconv.FormatBool(v.(bool))
	default:
		return strconv.FormatFloat(v.(float64), 'g', -1, 64)
	}
}

// parseValue is formatValue's inverse.
func parseValue(k kind, s string) (any, error) {
	switch k {
	case kString:
		return s, nil
	case kInt:
		return strconv.ParseInt(s, 10, 64)
	case kUint:
		return strconv.ParseUint(s, 10, 64)
	case kBool:
		return strconv.ParseBool(s)
	default:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
}

// isFinite reports whether f is an ordinary float JSON can carry.
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
