// Command flarebench is FLARE's end-to-end and per-layer benchmark. It
// builds an in-process node the way cmd/flare-server does, at paper
// scale, drives Server.Handler() directly with a closed loop of two
// clients, checks every response, and prints each metric by name with
// its unit; the last line of its output is one JSON result object.
//
// Usage (from the root of a checkout; run.sh builds and runs it):
//
//	bash flarebench/run.sh --workload hot-serve|tick-churn|db-durable \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 keeps every span
// tree, wraps each set-up call and each request in a span of its own,
// and reports the per-layer metrics instead. README.md in this
// directory describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"flare/internal/machine"
	"flare/internal/obs"
)

// populationSeed seeds the node's scenario population (the dcsim,
// profiler and analyzer seeds) as flare-server's default -seed does. It
// is fixed so that runs with different workload seeds serve the same
// population: the workload seed varies the requests, not the system.
const populationSeed = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

type config struct {
	workload string
	seed     int64 // request schedule
	seconds  int
	traced   bool
	workdir  string
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("flarebench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "hot-serve, tick-churn or db-durable")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the request schedule")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for store files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.traced = trace == 1
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "flarebench: need --workload hot-serve|tick-churn|db-durable, --seconds > 0, --trace 0|1")
		return 2
	}
	res, err := bench(cfg, wl, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flarebench:", err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "flarebench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload ties a schedule and its checks to a node shape.
type workload struct {
	store bool // metric database journaled through internal/store
	// setups is how many times a run builds the node; setup_s is their
	// median. The first build is the reference the output checks compare
	// against; the last one serves the timed phase.
	setups int
	// traceCapacity is the root-span ring of a traced run. Request trees
	// are folded as they complete, so the ring only has to hold the
	// detached server.estimate roots of the timed phase. A workload that
	// computes none keeps the tracer's default, so retained trees do not
	// inflate the heap the go.* metrics are read against.
	traceCapacity int
	// warm is the cache warm-up, part of each set-up.
	warm func(n *node) error
	// plan builds the schedule and output checks from the reference node.
	plan func(ref *node, seed int64) (*plan, error)
}

// plan is one run's schedule and checks.
type plan struct {
	sched *schedule
	check func(o op, body []byte) bool // inline body check; nil checks none
	keep  bool                         // keep a hash of every 2xx body for post
	// post, when set, checks the served node after the timed phase; it
	// may add per-layer metrics.
	post func(n *node, kept []response, layer map[string]metric) error
	// invariants checks the timed phase's counters.
	invariants func(ph *phase) error
}

// phase is what the timed phase did, as the checks and metrics need it.
type phase struct {
	elapsed  time.Duration
	lookups  int // estimate-cache lookups the completed requests made
	reg      regSnap
	rt       runtimeReading
	attempts int
	failed   int
	respB    int64
	fold     *spanFold
}

var workloads = map[string]workload{
	"hot-serve":  {setups: 15, warm: warmEstimates, plan: planHot},
	"tick-churn": {setups: 15, traceCapacity: 1 << 17, warm: warmEstimates, plan: planTick},
	"db-durable": {setups: 5, store: true, warm: warmDB, plan: planDB},
}

func paperFeatureNames() []string {
	var names []string
	for _, f := range machine.PaperFeatures() {
		names = append(names, f.Name)
	}
	return names
}

func hpJobNames(n *node) []string {
	var names []string
	for _, p := range n.pipe.Jobs().HPJobs() {
		names = append(names, p.Name)
	}
	return names
}

// warmEstimates computes every estimate key once through the server.
func warmEstimates(n *node) error {
	for _, k := range estimateKeys(paperFeatureNames(), hpJobNames(n)) {
		if err := serveOK(n.handler, estimateTarget(k)); err != nil {
			return err
		}
	}
	return nil
}

// warmDB reads one page of each dataset table.
func warmDB(n *node) error {
	for _, t := range []string{"samples", "job_perf"} {
		if err := serveOK(n.handler, "/api/db/query?table="+t); err != nil {
			return err
		}
	}
	return nil
}

// serveOK GETs target outside the timed loop and requires a 200.
func serveOK(h http.Handler, target string) error {
	status, body, err := serve(h, op{method: "GET", target: target})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	if err != nil {
		return fmt.Errorf("GET %s: %w", target, err)
	}
	return nil
}

func bench(cfg config, wl workload, stdout io.Writer) (*result, error) {
	reg := obs.Default()
	tracer := obs.NewTracer(reg)
	if cfg.traced {
		tracer = obs.NewTracerCapacity(reg, wl.traceCapacity)
	}

	// Set-up: build the node wl.setups times and keep the last. setup_s
	// is node build plus cache warm-up.
	setupStart := readRegistry(reg)
	var times []float64
	var n *node
	var pl *plan
	for i := 0; i < wl.setups; i++ {
		runtime.GC()
		dir := ""
		if wl.store {
			dir = filepath.Join(cfg.workdir, fmt.Sprintf("store-%d-%d", os.Getpid(), i))
		}
		t0 := time.Now()
		nd, err := buildNode(populationSeed, dir, tracer, cfg.traced)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		err = step(obs.WithTracer(context.Background(), tracer), cfg.traced, "bench.warmup",
			func(context.Context) error { return wl.warm(nd) })
		times = append(times, time.Since(t0).Seconds())
		if err == nil && i == 0 {
			pl, err = wl.plan(nd, cfg.seed)
		}
		if i < wl.setups-1 || err != nil {
			if cerr := nd.close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		n = nd
	}
	setupReg := readRegistry(reg).since(setupStart)
	fmt.Fprintf(stdout, "# workload=%s seed=%d population_seed=%d schedule_fingerprint=%s schedule_ops=%d trace=%v\n",
		cfg.workload, cfg.seed, populationSeed, pl.sched.fingerprint(), len(pl.sched.ops), cfg.traced)
	fmt.Fprintf(stdout, "# setup_s each build: %.4f\n", times)

	// Timed phase.
	cacheCounter := func(result string) *obs.Counter {
		return reg.Counter("flare_estimate_cache_total",
			"estimate cache lookups (a hit may still wait on an in-flight computation)", "result", result)
	}
	hit, miss, stale := cacheCounter("hit"), cacheCounter("miss"), cacheCounter("stale")
	regBefore, rtBefore := readRegistry(reg), readRuntime()
	phaseStart := time.Now()
	results, elapsed, err := runLoop(loopConfig{
		handler:     n.handler,
		sched:       pl.sched,
		deadline:    phaseStart.Add(time.Duration(cfg.seconds) * time.Second),
		check:       pl.check,
		keep:        pl.keep,
		lookupsDone: func() uint64 { return hit.Value() + miss.Value() + stale.Value() },
		traced:      cfg.traced,
		tracer:      tracer,
	})
	if err != nil {
		return nil, errors.Join(err, n.close())
	}
	n.srv.FlushTelemetry()
	ph := &phase{elapsed: elapsed, reg: readRegistry(reg).since(regBefore), fold: newSpanFold()}
	rtAfter := readRuntime()
	ph.rt = runtimeReading{
		allocBytes:   rtAfter.allocBytes - rtBefore.allocBytes,
		allocObjects: rtAfter.allocObjects - rtBefore.allocObjects,
		gcCycles:     rtAfter.gcCycles - rtBefore.gcCycles,
	}

	var lat [numKinds][]time.Duration
	var kept []response
	var problems []string
	for _, r := range results {
		r.log.appendTo(&lat)
		if err := r.log.close(); err != nil {
			problems = append(problems, "releasing samples: "+err.Error())
		}
		if r.logErr != nil {
			problems = append(problems, r.logErr.Error())
		}
		ph.attempts += r.attempts
		ph.failed += r.failed
		ph.respB += r.respB
		ph.lookups += r.lookups
		kept = append(kept, r.kept...)
		if r.folds != nil {
			ph.fold.merge(r.folds)
		}
		if r.failed+r.badBody > 0 {
			problems = append(problems, fmt.Sprintf("%d failed and %d wrong responses, first: %s",
				r.failed, r.badBody, r.firstBad))
		}
	}
	if cfg.traced {
		folded := 0
		for _, root := range tracer.Snapshot() {
			if root.Name == "server.estimate" && !root.Start.Before(phaseStart) {
				ph.fold.add(root)
				folded++
			}
		}
		// A root that ends after the registry was read is folded but not
		// counted, so only a shortfall means the ring dropped some.
		if computes, _ := ph.reg.stage("server.estimate"); float64(folded) < computes {
			problems = append(problems, fmt.Sprintf("the span ring kept %d of %v server.estimate roots", folded, computes))
		}
	}

	layer := map[string]metric{}
	if pl.post != nil {
		if err := pl.post(n, kept, layer); err != nil {
			problems = append(problems, err.Error())
		}
	}
	if err := pl.invariants(ph); err != nil {
		problems = append(problems, err.Error())
	}
	if shed, to := ph.reg.counter("flare_shed_total"), ph.reg.counter("flare_request_timeouts_total"); shed+to > 0 {
		problems = append(problems, fmt.Sprintf("%v requests shed and %v timed out", shed, to))
	}

	res := &result{Correct: len(problems) == 0, Attempted: ph.attempts, Failed: ph.failed}
	// Every workload reports the same end-to-end metrics. The p50 and
	// p99 of each op kind and the live heap are printed only.
	e2e := map[string]metric{
		"setup_s":        {median(times), "s"},
		"throughput_rps": {float64(ph.attempts) / elapsed.Seconds(), "1/s"},
	}
	printed := maps.Clone(e2e)
	counts := map[string]int{}
	logP50, kinds := 0.0, 0
	for k, l := range lat {
		if len(l) == 0 {
			continue
		}
		slices.Sort(l)
		p50 := ms(quantile(l, 0.50))
		printed[kindNames[k]+"_p50_ms"] = metric{p50, "ms"}
		printed[kindNames[k]+"_p99_ms"] = metric{ms(quantile(l, 0.99)), "ms"}
		counts[kindNames[k]] = len(l)
		logP50 += math.Log(p50)
		kinds++
	}
	if kinds > 0 {
		e2e["op_p50_geomean_ms"] = metric{math.Exp(logP50 / float64(kinds)), "ms"}
		printed["op_p50_geomean_ms"] = e2e["op_p50_geomean_ms"]
	}
	layerMetrics(layer, ph, setupReg, cfg.traced)

	// Heap in use after a forced GC, with only the served node (and the
	// tracer's ring, in a traced run) left reachable.
	lat, kept, results = [numKinds][]time.Duration{}, nil, nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	printed["heap_live_mb"] = metric{float64(mem.HeapAlloc) / (1 << 20), "MB"}
	runtime.KeepAlive(n)
	if err := n.close(); err != nil {
		problems = append(problems, "closing node: "+err.Error())
		res.Correct = false
	}

	// A traced run reports the per-layer metrics; its end-to-end numbers
	// carry the tracing overhead and are left out.
	res.Metrics = e2e
	if cfg.traced {
		printed, res.Metrics = layer, layer
	}
	printTable(stdout, printed, res.Metrics, counts, ph)
	if len(problems) > 0 {
		return res, errors.New(strings.Join(problems, "; "))
	}
	return res, nil
}

// quantile returns the q-quantile of sorted samples by nearest rank:
// the ceil(q·n)-th smallest. The epsilon keeps a product such as
// 0.99·1000 that rounds to just above an integer from skipping a rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(sorted))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// printTable prints every metric by name with its unit, with the sample
// count behind each latency; those not in the result are marked.
func printTable(w io.Writer, metrics, reported map[string]metric, counts map[string]int, ph *phase) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# requests=%d failed=%d elapsed_s=%.3f\n", ph.attempts, ph.failed, ph.elapsed.Seconds())
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := metrics[k]
		fmt.Fprintf(&b, "%-40s %16.6f %s", k, m.Value, m.Unit)
		if op, _, ok := strings.Cut(k, "_p"); ok && counts[op] > 0 && strings.HasSuffix(k, "_ms") {
			fmt.Fprintf(&b, "  (n=%d)", counts[op])
		}
		if _, ok := reported[k]; !ok {
			b.WriteString("  [printed only]")
		}
		b.WriteByte('\n')
	}
	_, _ = w.Write(b.Bytes())
}
