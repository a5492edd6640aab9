package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// span is one timed call into a layer. Spans of one op share op; parent
// is the id of the span that caused this one (-1 for an op's root).
// start and end are nanoseconds since the tracer began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. The benchmark records
// spans around the calls it makes into each layer; a span inside the
// program would need the program's own instrumentation.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a span that ran from start for d and returns its id.
func (t *tracer) record(name string, op, parent int, start time.Time, d time.Duration) int {
	s := int64(start.Sub(t.t0))
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: s, End: s + int64(d)})
	return id
}

// replayed adds a child that the benchmark re-ran after its parent
// returned: the same call the parent made inside the program, timed on
// its own. It is placed at the parent's start, where the program ran it,
// so self-time arithmetic subtracts it from the parent.
func (t *tracer) replayed(name string, parent int, d time.Duration) int {
	p := t.spans[parent]
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: p.Op, Name: name, Start: p.Start, End: p.Start + int64(d)})
	return id
}

// selfTime is the parent's duration minus the part of its interval its
// children cover; overlapping children count once and any part of a
// child outside the parent counts not at all.
func selfTime(parent span, children []span) int64 {
	type iv struct{ s, e int64 }
	var ivs []iv
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int {
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	})
	var covered, curS, curE int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curS, curE, open = v.s, v.e, true
		case v.s <= curE:
			curE = max(curE, v.e)
		default:
			covered += curE - curS
			curS, curE = v.s, v.e
		}
	}
	if open {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// durations lists the durations of every span with the name.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes lists the self time of every span with the name.
func (t *tracer) selfTimes(name string) []int64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []int64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, selfTime(s, children[s.ID]))
		}
	}
	return out
}

// maxDumpedSpans bounds the span file one traced run writes.
const maxDumpedSpans = 20000

// dump writes the first spans as JSON lines to
// .bench_build/spans-<workload>-<seed>.jsonl under the working directory.
func (t *tracer) dump(workload string, seed int64) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+"-"+strconv.FormatInt(seed, 10)+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i == maxDumpedSpans {
			break
		}
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

// overhead compares the traced run's op latency with the untraced one's;
// its base is the traced op count.
func overhead(r *report, untraced, traced []int64) {
	base := int64(len(traced))
	ratio := float64(median(traced)) / float64(max(median(untraced), 1))
	r.Metrics["trace.overhead_ratio"] = metric{Value: ratio, Unit: "ratio", Base: &base}
	r.set("trace.ops", float64(len(traced)), "count")
}
