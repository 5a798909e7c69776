package main

import (
	"testing"
	"time"

	"flare/internal/obs"
)

func TestSchedulesAreSeeded(t *testing.T) {
	features, jobs := []string{"feature1", "feature2", "feature3"}, []string{"DA", "DC"}
	build := map[string]func(seed int64) *schedule{
		"hot-serve":  func(seed int64) *schedule { return hotSchedule(seed, features, jobs) },
		"tick-churn": func(seed int64) *schedule { return tickSchedule(seed, features, jobs, 50) },
		"db-durable": func(seed int64) *schedule {
			tbl := dbTable{name: "samples", rows: 10, lookups: [][2]string{{"metric", "IPC"}, {"scenario", "3"}}}
			return dbSchedule(seed, tbl, tbl)
		},
	}
	for name, b := range build {
		a, again, other := b(1), b(1), b(2)
		if a.fingerprint() != again.fingerprint() {
			t.Errorf("%s: equal seeds give different schedules", name)
		}
		if a.fingerprint() == other.fingerprint() {
			t.Errorf("%s: seeds 1 and 2 give the same schedule", name)
		}
	}
}

// TestTickRoundsAskEachKeyOnce pins the property that makes every
// tick-churn estimate a cache miss.
func TestTickRoundsAskEachKeyOnce(t *testing.T) {
	s := tickSchedule(7, []string{"f1", "f2"}, []string{"DA", "DC", "DS"}, 50)
	for r := 0; r < 3; r++ {
		seen := map[string]int{}
		for i := r * s.roundLen; i < (r+1)*s.roundLen; i++ {
			o := s.at(i)
			if (i == r*s.roundLen) != (o.kind == opTick) {
				t.Fatalf("op %d: kind %d; a round starts with its only tick", i, o.kind)
			}
			seen[o.target]++
		}
		for target, n := range seen {
			if n != 1 {
				t.Errorf("round %d asks %s %d times", r, target, n)
			}
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	root := obs.SpanSnapshot{Name: "root", Start: ms(0), DurationMs: 10, Children: []obs.SpanSnapshot{
		{Name: "a", Start: ms(1), DurationMs: 3}, // [1,4]
		{Name: "b", Start: ms(2), DurationMs: 4}, // [2,6], overlaps a
		{Name: "c", Start: ms(8), DurationMs: 5}, // [8,13], clipped to 10
		{Name: "pipeline.tick", Start: ms(6), DurationMs: 1, Attrs: []obs.Attr{{Key: "rebuilt", Value: true}}},
	}}
	f := newSpanFold()
	f.add(root)
	if got := f.selfUs("root"); got != 2000 { // 10 - |[1,7] ∪ [8,10]|
		t.Errorf("root self = %vµs, want 2000", got)
	}
	if got := f.selfUs("b"); got != 4000 {
		t.Errorf("b self = %vµs, want 4000", got)
	}
	if f.rebuilt != 1 {
		t.Errorf("rebuilt ticks = %d, want 1", f.rebuilt)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]time.Duration, 1000)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	if q := quantile(s, 0.5); q != 500 {
		t.Errorf("p50 = %d, want 500", q)
	}
	if q := quantile(s, 0.99); q != 990 {
		t.Errorf("p99 = %d, want 990", q)
	}
}

func TestSampleLogRoundTrip(t *testing.T) {
	l, err := newSampleLog()
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	for _, s := range []struct {
		k opKind
		d time.Duration
	}{{opTick, 7 * time.Millisecond}, {opEstimate, 3}, {opDBLookup, time.Hour}} {
		if err := l.add(s.k, s.d); err != nil {
			t.Fatal(err)
		}
	}
	var got [numKinds][]time.Duration
	l.appendTo(&got)
	if got[opTick][0] != 7*time.Millisecond || got[opEstimate][0] != 3 || got[opDBLookup][0] != time.Hour {
		t.Errorf("round trip = %v", got)
	}
}
