package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// (or one sweep cell) share Req; Parent is the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out. While
// off it records nothing, so the same wrapped code serves the untraced
// half of an overhead comparison.
type recorder struct {
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// do times fn as a span named name under parent. fn receives the
// span's own id, to parent its children. While the recorder is off, fn
// just runs.
func (r *recorder) do(name string, parent, req int64, fn func(id int64)) {
	if !r.on.Load() {
		fn(0)
		return
	}
	id := r.newID()
	start := r.now()
	fn(id)
	r.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: r.now()})
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children, such
// as hedged legs, count once).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, curS, curE int64
		open := false
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			switch {
			case !open:
				curS, curE, open = a, b, true
			case a <= curE:
				curE = max(curE, b)
			default:
				covered += curE - curS
				curS, curE = a, b
			}
		}
		if open {
			covered += curE - curS
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// spanStats aggregates spans by name.
type spanStats struct {
	n     int
	total time.Duration
}

func (s spanStats) meanUS() float64 { return float64(s.total) / float64(max(s.n, 1)) / 1e3 }
func (s spanStats) meanMS() float64 { return float64(s.total) / float64(max(s.n, 1)) / 1e6 }

func byName(spans []span) map[string]spanStats {
	out := map[string]spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		st.n++
		st.total += s.dur()
		out[s.Name] = st
	}
	return out
}

// runTraced is the --trace 1 mode: it runs all three workload families
// in this process with span recording — the chosen workload's family
// at full scale, the other two at probe scale so every per-layer metric
// is reported on every workload — and derives the per-layer metrics
// from the spans, the direct public calls and the Stats() counters.
// End-to-end numbers of the traced run are recorded beside them
// ("traced.*"), with the tracing overhead: the same probes or replays
// timed with span recording off and on.
func runTraced(w workload, o options) (*outcome, error) {
	out := newOutcome()
	out.Procs["benchmark"] = runtime.GOMAXPROCS(0)
	rec := newRecorder()
	if err := traceSweep(out, rec, o, w.family == familySweep); err != nil {
		return nil, fmt.Errorf("sweep family: %w", err)
	}
	if err := traceEnvelope(out, rec, o, w.family == familyEnvelope); err != nil {
		return nil, fmt.Errorf("envelope family: %w", err)
	}
	scale := serveProbe
	switch w.name {
	case "serve-hot":
		scale = serveHotFull
	case "serve-cold":
		scale = serveColdFull
	}
	if err := traceServe(out, rec, o, scale); err != nil {
		return nil, fmt.Errorf("serve family: %w", err)
	}
	out.Layer["trace.overhead_ratio"] = out.Layer["traced."+w.family+".overhead_ratio"]
	path := filepath.Join(o.Out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.Seed))
	if err := rec.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	out.Notes["spans"] = path
	out.Volume["spans"] = int64(len(rec.snapshot()))
	return out, nil
}
