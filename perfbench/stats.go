package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is copied, not reordered).  NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// goStats is one reading of the Go runtime counters the benchmark
// attributes to layer calls: heap objects and bytes allocated so far, and
// the cumulative CPU seconds the GC and the whole process have used (the
// runtime's own estimate, refreshed at each GC cycle).
type goStats struct {
	mallocs, bytes float64
	gcCPU, allCPU  float64
}

var goStatNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readGoStats samples the runtime counters without stopping the world.
func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{mallocs: v(0), bytes: v(1), gcCPU: v(2), allCPU: v(3)}
}

func (a goStats) sub(b goStats) goStats {
	return goStats{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.allCPU - b.allCPU}
}

func (a *goStats) add(b goStats) {
	a.mallocs += b.mallocs
	a.bytes += b.bytes
	a.gcCPU += b.gcCPU
	a.allCPU += b.allCPU
}

// gcShare is the GC's share of CPU time in a delta, in percent.
func (a goStats) gcShare() float64 {
	if a.allCPU <= 0 {
		return 0
	}
	return 100 * a.gcCPU / a.allCPU
}

// resetPeakRSS restarts the kernel's peak-resident-set count (VmHWM) at
// the current resident set.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMiB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// cpuTicks reads the machine-wide busy and stolen CPU time from procfs:
// on a virtual machine, steal is time this machine's processors wanted
// to run and the host ran something else.
func cpuTicks() (busy, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0, err
		}
		switch i {
		case 4, 5: // idle, iowait
		case 8:
			steal = v
		default:
			busy += v
		}
	}
	return busy, steal, nil
}

// stealShare returns a function that reports the share of CPU time the
// host stole since the call, in percent of the time the machine wanted
// to run; -1 when procfs is unavailable.
func stealShare() func() float64 {
	b0, s0, err0 := cpuTicks()
	return func() float64 {
		b1, s1, err := cpuTicks()
		if err0 != nil || err != nil || b1+s1 <= b0+s0 {
			return -1
		}
		return 100 * (s1 - s0) / (b1 - b0 + s1 - s0)
	}
}
