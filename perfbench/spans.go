package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a call into a layer's public API.  Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the traced run.  A nil *recorder is
// the untraced run: every method is a no-op, so call sites need no guard.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// open is a started span; close it with (*recorder).end.
type open struct {
	id, parent, req int64
	name            string
	start           time.Time
}

// begin starts a span.  The returned ID is the parent to hand to child
// spans; it is 0 when r is nil.
func (r *recorder) begin(name string, parent, req int64) open {
	if r == nil {
		return open{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return open{id: id, parent: parent, req: req, name: name, start: time.Now()}
}

// end closes o and returns its duration.
func (r *recorder) end(o open) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: int64(o.start.Sub(r.t0)), End: int64(now.Sub(r.t0)),
	})
	r.mu.Unlock()
	return now.Sub(o.start)
}

// newReq allocates a request ID from the span ID space.
func (r *recorder) newReq() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// dump writes every span as one JSON object per line.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes sums, per span name, the total and the self time: a span's
// duration minus the part of its interval its children cover.
func (r *recorder) selfTimes() (names []string, total, self map[string]time.Duration, count map[string]int) {
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	count = map[string]int{}
	for _, s := range r.spans {
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		self[s.Name] += d - covered(s, children[s.ID])
		count[s.Name]++
	}
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	return names, total, self, count
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

// printSelfTimes writes the per-layer self-time table.
func (r *recorder) printSelfTimes(w io.Writer) {
	names, total, self, count := r.selfTimes()
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", n, count[n], ms(total[n]), ms(self[n]))
	}
}
