package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flare/internal/obs"
)

// clients is the closed loop's width: two callers that each wait for
// their reply before sending the next request, as FLARE's dashboards and
// scripts do.
const clients = 2

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.header)
	r.status = 0
	r.body.Reset()
}

// response is what a client keeps of one served 2xx request for a
// post-run check: which target it was and a hash of its body.
type response struct {
	want int
	sum  uint64
}

// clientResult is one client's share of a run.
type clientResult struct {
	log      *sampleLog
	logErr   error
	attempts int
	lookups  int // estimate-cache lookups the completed requests made
	failed   int // non-2xx responses
	badBody  int // 2xx responses whose body failed the inline check
	firstBad string
	respB    int64      // response body bytes
	kept     []response // responses kept for a post-run check
	folds    *spanFold  // traced runs: self times of the request trees
}

// loopConfig parameterises one timed phase.
type loopConfig struct {
	handler  http.Handler
	sched    *schedule
	deadline time.Time
	// check, when set, validates a 2xx body inline; false fails the run.
	check func(o op, body []byte) bool
	// keep keeps a hash of every 2xx body for a post-run check.
	keep bool
	// lookupsDone reads the server's estimate-cache lookup counter.
	// Rounds (tick-churn) use it to order ticks after every earlier
	// lookup; see roundGate.
	lookupsDone func() uint64
	traced      bool
	tracer      *obs.Tracer
}

// roundGate orders tick-churn rounds. A tick starts only after every
// earlier request has made its cache lookup; replays still in flight
// are left running, so the tick waits for the pipeline write lock
// behind them. A barrier op (the tick, then the batch) runs alone: the
// round's later requests start only after it has been served. Each key
// is asked once per round and each tick clears the cache, so together
// these make every estimate a cache miss.
type roundGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	passed   int    // barrier ops served; they finish in schedule order
	need     []int  // by position in a round: the round's barriers before it
	barriers int    // barrier ops per round
	roundLen int    // ops per round
	perRound uint64 // estimate-cache lookups per round
	baseline uint64 // lookup counter at the start of the phase
}

func newRoundGate(s *schedule, baseline uint64) *roundGate {
	g := &roundGate{roundLen: s.roundLen, baseline: baseline}
	g.cond = sync.NewCond(&g.mu)
	for _, o := range s.ops[:s.roundLen] {
		g.need = append(g.need, g.barriers)
		g.perRound += uint64(o.lookups)
		if o.barrier {
			g.barriers++
		}
	}
	return g
}

// before blocks until the op at shared index i may be issued.
func (g *roundGate) before(o op, i int, lookupsDone func() uint64) {
	r := i / g.roundLen
	if o.kind == opTick {
		want := g.baseline + uint64(r)*g.perRound
		for spins := 0; lookupsDone() < want; spins++ {
			if spins < 64 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	want := r*g.barriers + g.need[i%g.roundLen]
	g.mu.Lock()
	for g.passed < want {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// after records that op o has been served.
func (g *roundGate) after(o op) {
	if !o.barrier {
		return
	}
	g.mu.Lock()
	g.passed++
	g.mu.Unlock()
	g.cond.Broadcast()
}

// runLoop drives the closed loop until the deadline and returns each
// client's results and the phase's wall time. Every op taken before the
// deadline is completed.
func runLoop(cfg loopConfig) ([]*clientResult, time.Duration, error) {
	var gate *roundGate
	if cfg.sched.roundLen > 0 {
		gate = newRoundGate(cfg.sched, cfg.lookupsDone())
	}
	results := make([]*clientResult, clients)
	for c := range results {
		log, err := newSampleLog()
		if err != nil {
			for _, r := range results[:c] {
				_ = r.log.close()
			}
			return nil, 0, fmt.Errorf("sample log: %w", err)
		}
		results[c] = &clientResult{log: log}
		if cfg.traced {
			results[c].folds = newSpanFold()
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, res := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client(cfg, gate, &next, res)
		}()
	}
	wg.Wait()
	return results, time.Since(start), nil
}

func client(cfg loopConfig, gate *roundGate, next *atomic.Int64, res *clientResult) {
	rec := &recorder{header: make(http.Header)}
	for time.Now().Before(cfg.deadline) {
		i := int(next.Add(1) - 1)
		o := cfg.sched.at(i)
		if gate != nil {
			gate.before(o, i, cfg.lookupsDone)
		}
		ctx := context.Background()
		var span *obs.Span
		if cfg.traced {
			ctx, span = obs.StartSpan(obs.WithTracer(ctx, cfg.tracer), "bench.serve")
		}
		req, err := newRequest(ctx, o)
		if err != nil {
			panic(err) // targets are built by the schedule; a bad one is a bug
		}
		rec.reset()
		t0 := time.Now()
		cfg.handler.ServeHTTP(rec, req)
		d := time.Since(t0)
		span.End()
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		if gate != nil {
			gate.after(o)
		}

		res.attempts++
		res.lookups += o.lookups
		if err := res.log.add(o.kind, d); err != nil && res.logErr == nil {
			res.logErr = err
		}
		res.respB += int64(rec.body.Len())
		if res.folds != nil {
			res.folds.add(span.Snapshot())
		}
		switch {
		case rec.status < 200 || rec.status > 299:
			res.failed++
			res.noteBad(o, rec)
			continue
		case cfg.check != nil && !cfg.check(o, rec.body.Bytes()):
			res.badBody++
			res.noteBad(o, rec)
		}
		if cfg.keep {
			res.kept = append(res.kept, response{want: o.want, sum: bodySum(rec.body.Bytes())})
		}
	}
}

func (res *clientResult) noteBad(o op, rec *recorder) {
	if res.firstBad == "" {
		b := rec.body.String()
		if len(b) > 300 {
			b = b[:300] + "..."
		}
		res.firstBad = o.method + " " + o.target + " -> " + http.StatusText(rec.status) + ": " + b
	}
}

// bodySum hashes a response body for a post-run comparison.
func bodySum(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

// newRequest builds the op's request.
func newRequest(ctx context.Context, o op) (*http.Request, error) {
	var body io.Reader
	if o.body != "" {
		body = strings.NewReader(o.body)
	}
	return http.NewRequestWithContext(ctx, o.method, o.target, body)
}

// serve issues one request outside the timed loop (warm-up and final
// checks) and returns its status and body.
func serve(h http.Handler, o op) (int, []byte, error) {
	req, err := newRequest(context.Background(), o)
	if err != nil {
		return 0, nil, err
	}
	rec := &recorder{header: make(http.Header)}
	h.ServeHTTP(rec, req)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec.status, rec.body.Bytes(), nil
}
