package main

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// program's public functions (the program itself carries no spans).
// Parent is 0 for a workload operation; Start and End are nanoseconds since
// the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer holds a run's spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per span site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int64, name string, start time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: start.Sub(t.epoch).Nanoseconds()})
	return id
}

// end closes the span id.
func (t *tracer) end(id int64, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
}

// add records a span whose interval is already known.
func (t *tracer) add(parent int64, name string, start, end time.Time) {
	t.end(t.begin(parent, name, start), end)
}

// all returns the recorded spans (nil on a nil tracer).
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns every span's self time in nanoseconds: its duration
// minus the part of its interval that its direct children cover. Children
// are clipped to the parent's interval and overlapping children count once.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		slices.SortFunc(cs, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		var covered, curStart, curEnd int64
		open := false
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = a, b, true
			case a > curEnd:
				covered += curEnd - curStart
				curStart, curEnd = a, b
			case b > curEnd:
				curEnd = b
			}
		}
		if open {
			covered += curEnd - curStart
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// layerRow aggregates the spans of one name: how many, their summed
// duration and their summed self time.
type layerRow struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

// layers aggregates spans by name, sorted by name.
func layers(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := make(map[string]*layerRow)
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.TotalMs += float64(s.End-s.Start) / 1e6
		r.SelfMs += float64(self[s.ID]) / 1e6
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	slices.SortFunc(rows, func(a, b layerRow) int { return cmp.Compare(a.Name, b.Name) })
	return rows
}
