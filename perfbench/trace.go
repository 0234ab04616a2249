package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are kept
// in memory and written out once, when the run ends.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Req    int64  `json:"req"`              // request (op) the span belongs to
	Start  int64  `json:"start_ns"`         // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer collects spans. A nil tracer records nothing, so untraced code
// paths pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Req: req, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-timed span (for intervals measured before the
// span's start was known to be interesting, such as an open-loop
// request's wait from its due time).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanSelf returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func spanSelf(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			flush()
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	flush()
	return total
}

// childTotals totals the durations of each span's direct children by
// name: parent id → child name → nanoseconds.
func childTotals(spans []span) map[int]map[string]int64 {
	out := make(map[int]map[string]int64)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		m := out[s.Parent]
		if m == nil {
			m = make(map[string]int64)
			out[s.Parent] = m
		}
		m[s.Name] += s.End - s.Start
	}
	return out
}

// selfByName totals self time and span count per span name and formats
// the names with the most self time first.
func selfByName(spans []span, top int) string {
	self := spanSelf(spans)
	type agg struct {
		name  string
		ns    int64
		count int
	}
	idx := map[string]*agg{}
	var all []*agg
	for _, s := range spans {
		a := idx[s.Name]
		if a == nil {
			a = &agg{name: s.Name}
			idx[s.Name] = a
			all = append(all, a)
		}
		a.ns += self[s.ID]
		a.count++
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ns > all[j].ns })
	var b strings.Builder
	for i, a := range all {
		if i == top {
			break
		}
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s %.1f ms over %d", a.name, float64(a.ns)/1e6, a.count)
	}
	return b.String()
}
