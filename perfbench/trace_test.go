package main

import (
	"math"
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Overlapping children count once: [10, 50] is covered.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A child running past its parent is clipped to [90, 100].
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 2, Name: "g", Start: 15, End: 25},
		{ID: 6, Name: "op", Start: 200, End: 210},
		// A child entirely outside its parent covers nothing.
		{ID: 7, Parent: 6, Name: "a", Start: 300, End: 310},
	}
	want := map[int64]int64{1: 50, 2: 10, 3: 30, 4: 30, 5: 10, 6: 10, 7: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	rows := layers(spans)
	wantRows := []layerRow{
		{Name: "a", Count: 2, TotalMs: 30e-6, SelfMs: 20e-6},
		{Name: "b", Count: 1, TotalMs: 30e-6, SelfMs: 30e-6},
		{Name: "c", Count: 1, TotalMs: 30e-6, SelfMs: 30e-6},
		{Name: "g", Count: 1, TotalMs: 10e-6, SelfMs: 10e-6},
		{Name: "op", Count: 2, TotalMs: 110e-6, SelfMs: 60e-6},
	}
	if len(rows) != len(wantRows) {
		t.Fatalf("rows %+v, want %+v", rows, wantRows)
	}
	for i, r := range rows {
		w := wantRows[i]
		if r.Name != w.Name || r.Count != w.Count || math.Abs(r.TotalMs-w.TotalMs) > 1e-12 || math.Abs(r.SelfMs-w.SelfMs) > 1e-12 {
			t.Errorf("row %d: %+v, want %+v", i, r, w)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {75, 3.25}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}
