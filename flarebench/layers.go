package main

import (
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"flare/internal/obs"
)

// regSnap is a registry reading: counter and gauge values by
// "name{labels}", histogram counts and sums by "name{labels}#count" and
// "name{labels}#sum". Subtracting two readings gives a phase's work.
type regSnap map[string]float64

func readRegistry(reg *obs.Registry) regSnap {
	out := regSnap{}
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			key := f.Name + s.Labels
			if s.Value != nil {
				out[key] = *s.Value
				continue
			}
			out[key+"#count"] = float64(s.Count)
			out[key+"#sum"] = s.Sum
		}
	}
	return out
}

// since returns r minus an earlier reading.
func (r regSnap) since(earlier regSnap) regSnap {
	out := make(regSnap, len(r))
	for k, v := range r {
		out[k] = v - earlier[k]
	}
	return out
}

// sum adds every series of family name (with suffix, e.g. "#count")
// whose labels contain each of the given `key="value"` fragments.
func (r regSnap) sum(name, suffix string, labels ...string) float64 {
	var total float64
	for k, v := range r {
		if !strings.HasPrefix(k, name) || !strings.HasSuffix(k, suffix) {
			continue
		}
		rest := strings.TrimSuffix(k[len(name):], suffix)
		if rest != "" && rest[0] != '{' {
			continue // a longer family name sharing the prefix
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if ok {
			total += v
		}
	}
	return total
}

func (r regSnap) counter(name string, labels ...string) float64 {
	return r.sum(name, "", labels...)
}

// stage returns the exact count and total seconds of the spans named
// stage, from obs.StageHistogram.
func (r regSnap) stage(stage string) (count, seconds float64) {
	l := `stage="` + stage + `"`
	return r.sum(obs.StageHistogram, "#count", l), r.sum(obs.StageHistogram, "#sum", l)
}

// stageMean returns the mean duration of the named spans in unit, or 0
// when none ran.
func (r regSnap) stageMean(unit time.Duration, stages ...string) float64 {
	var n, s float64
	for _, st := range stages {
		c, sec := r.stage(st)
		n += c
		s += sec
	}
	return ratio(s*float64(time.Second)/float64(unit), n)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeReading holds the runtime/metrics counters the benchmark reads.
type runtimeReading struct {
	allocBytes, allocObjects, gcCycles float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeReading{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		gcCycles:     float64(s[2].Value.Uint64()),
	}
}

// spanFold accumulates self time by span name over span trees. A span's
// self time is its duration minus the part of it its children cover.
type spanFold struct {
	self    map[string]*selfAcc
	ticks   int // pipeline.tick spans seen
	rebuilt int // of which rebuilt the analysis
}

type selfAcc struct {
	sum time.Duration
	n   int
}

func newSpanFold() *spanFold { return &spanFold{self: map[string]*selfAcc{}} }

func spanEnd(s obs.SpanSnapshot) time.Time {
	return s.Start.Add(time.Duration(s.DurationMs * float64(time.Millisecond)))
}

// add folds one span tree.
func (f *spanFold) add(s obs.SpanSnapshot) {
	if s.Name == "" || s.InFlight {
		return
	}
	start, end := s.Start, spanEnd(s)
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		a, b := c.Start, spanEnd(c)
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
		f.add(c)
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	acc := f.self[s.Name]
	if acc == nil {
		acc = &selfAcc{}
		f.self[s.Name] = acc
	}
	acc.sum += end.Sub(start) - covered
	acc.n++
	if s.Name == "pipeline.tick" {
		f.ticks++
		for _, a := range s.Attrs {
			if a.Key == "rebuilt" && a.Value == true {
				f.rebuilt++
			}
		}
	}
}

func (f *spanFold) merge(o *spanFold) {
	for name, a := range o.self {
		acc := f.self[name]
		if acc == nil {
			acc = &selfAcc{}
			f.self[name] = acc
		}
		acc.sum += a.sum
		acc.n += a.n
	}
	f.ticks += o.ticks
	f.rebuilt += o.rebuilt
}

// selfUs returns the mean self time of the named spans in µs (0 when
// none were folded).
func (f *spanFold) selfUs(name string) float64 {
	a := f.self[name]
	if a == nil {
		return 0
	}
	return ratio(float64(a.sum)/float64(time.Microsecond), float64(a.n))
}
