package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a module, recorded by the benchmark from
// outside the program. Times are nanoseconds since the tracer's origin.
type span struct {
	name       string
	parent     int32 // index of the parent span, -1 for a root
	start, end int64
}

// tracer keeps every span in memory; spans are written out once the run
// ends. A nil *tracer records nothing, so the untraced run pays one nil
// check per call site.
type tracer struct {
	origin time.Time
	spans  []span
}

// newTracer preallocates room for capacity spans, so recording inside a
// timed window does not allocate.
func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: t.now()})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = t.now()
}

// duration of span id in nanoseconds.
func (t *tracer) duration(id int32) int64 { return t.spans[id].end - t.spans[id].start }

// moduleTime aggregates every span of one name.
type moduleTime struct {
	name  string
	count int
	// total is the summed span duration; self subtracts the time covered
	// by child spans; parentTotal sums the durations of the parents.
	total, self, parentTotal int64
}

// meanUs is the mean span duration in microseconds.
func (m moduleTime) meanUs() float64 {
	if m.count == 0 {
		return 0
	}
	return float64(m.total) / float64(m.count) / 1e3
}

// selfShare is the module's self time as a share of its parents' time.
func (m moduleTime) selfShare() float64 {
	if m.parentTotal == 0 {
		return 0
	}
	return float64(m.self) / float64(m.parentTotal)
}

// modules aggregates spans by name, in first-seen order. Children of one
// span run one after another (single client), so subtracting their
// durations gives the parent's self time.
func (t *tracer) modules() map[string]*moduleTime {
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childSum[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*moduleTime)
	for i, s := range t.spans {
		m := out[s.name]
		if m == nil {
			m = &moduleTime{name: s.name}
			out[s.name] = m
		}
		d := s.end - s.start
		m.count++
		m.total += d
		m.self += d - childSum[i]
		if s.parent >= 0 {
			m.parentTotal += t.spans[s.parent].end - t.spans[s.parent].start
		}
	}
	return out
}

// writeSelfTable prints one row per module: calls, mean, self time and the
// self share of the parent span.
func writeSelfTable(w io.Writer, mods map[string]*moduleTime) {
	list := make([]*moduleTime, 0, len(mods))
	for _, m := range mods {
		list = append(list, m)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(w, "%-24s %10s %12s %12s %12s\n", "span", "calls", "mean_us", "self_s", "self/parent")
	for _, m := range list {
		share := "-"
		if m.parentTotal > 0 {
			share = fmt.Sprintf("%.1f%%", 100*m.selfShare())
		}
		fmt.Fprintf(w, "%-24s %10d %12.2f %12.4f %12s\n", m.name, m.count, m.meanUs(), float64(m.self)/1e9, share)
	}
}

// writeSpans writes every span as one tab-separated line: id, parent,
// name, start_ns, dur_ns.
func (t *tracer) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tparent\tname\tstart_ns\tdur_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.name, s.start, s.end-s.start)
	}
	return bw.Flush()
}
