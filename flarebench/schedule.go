package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
)

// opKind is the request type an op issues; each kind has its own
// latency sample set.
type opKind int

const (
	opEstimate opKind = iota
	opBatch
	opTick
	opDBScan
	opDBLookup
	numKinds
)

// kindNames prefix the latency metrics (estimate_p50_ms, ...).
var kindNames = [numKinds]string{"estimate", "batch", "tick", "dbscan", "dblookup"}

// op is one scheduled request.
type op struct {
	kind    opKind
	method  string
	target  string // path and query
	body    string // POST body (tick only)
	lookups int    // estimate-cache lookups the request makes
	want    int    // index of the request's distinct target, for output checks
	barrier bool   // rounds only: later ops of the round wait for it
}

// schedule is a deterministic request sequence shared by all clients.
// Clients take ops by a shared index; the sequence repeats when a run
// outlasts it. With roundLen > 0 the ops come in rounds whose first op
// is a tick (tick-churn), ordered by a roundGate.
type schedule struct {
	ops      []op
	roundLen int
	targets  []string // distinct targets; op.want indexes this
	index    map[string]int
}

// at returns the op at shared index i.
func (s *schedule) at(i int) op { return s.ops[i%len(s.ops)] }

// add appends an op, numbering its target among the distinct ones.
func (s *schedule) add(o op) {
	if s.index == nil {
		s.index = make(map[string]int)
	}
	w, ok := s.index[o.target]
	if !ok {
		w = len(s.targets)
		s.index[o.target] = w
		s.targets = append(s.targets, o.target)
	}
	o.want = w
	if o.method == "" {
		o.method = "GET"
	}
	s.ops = append(s.ops, o)
}

// fingerprint hashes the whole sequence; equal seeds print equal
// fingerprints.
func (s *schedule) fingerprint() string {
	h := sha256.New()
	for _, o := range s.ops {
		fmt.Fprintf(h, "%s %s %s\n", o.method, o.target, o.body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// estimateKey is one (feature, job) estimate; job "" is the all-job
// estimate.
type estimateKey struct{ feature, job string }

// estimateKeys lists every feature crossed with the all-job key and
// every HP job: 3 × (1 + 8) = 27 keys.
func estimateKeys(features, jobs []string) []estimateKey {
	var keys []estimateKey
	for _, f := range features {
		keys = append(keys, estimateKey{f, ""})
		for _, j := range jobs {
			keys = append(keys, estimateKey{f, j})
		}
	}
	return keys
}

func estimateTarget(k estimateKey) string {
	t := "/api/estimate?feature=" + k.feature
	if k.job != "" {
		t += "&job=" + k.job
	}
	return t
}

func batchTarget(features []string, job string) string {
	t := "/api/estimate/batch?features=" + strings.Join(features, ",")
	if job != "" {
		t += "&job=" + job
	}
	return t
}

// Schedule lengths: hot-serve and db-durable repeat a fixed cycle;
// tick-churn has this many distinct rounds before repeating.
const (
	hotCycle   = 1 << 16
	dbCycle    = 1 << 14
	tickRounds = 1 << 12
)

// hotSchedule: three in four requests are single estimates over all 27
// keys, one in four a batch of 1–3 features in seeded order for one job
// (or all jobs). Every key is warmed during set-up, so all are hits.
func hotSchedule(seed int64, features, jobs []string) *schedule {
	rng := rand.New(rand.NewSource(seed))
	keys := estimateKeys(features, jobs)
	jobChoices := append([]string{""}, jobs...)
	s := &schedule{}
	for len(s.ops) < hotCycle {
		if rng.Intn(4) > 0 {
			s.add(op{kind: opEstimate, target: estimateTarget(keys[rng.Intn(len(keys))]), lookups: 1})
			continue
		}
		perm := rng.Perm(len(features))[:1+rng.Intn(len(features))]
		fs := make([]string, len(perm))
		for i, p := range perm {
			fs[i] = features[p]
		}
		s.add(op{kind: opBatch, target: batchTarget(fs, jobChoices[rng.Intn(len(jobChoices))]), lookups: len(fs)})
	}
	return s
}

// tickSchedule: each round is one tick re-measuring 1–3 seeded scenario
// IDs, then one batch over all features (all jobs), then in seeded
// order one estimate per (feature, HP job). Each of the 27 keys is asked
// for exactly once per round, so every estimate is a cold replay. The
// tick and the batch are barriers: each runs alone, and the estimates
// start once both are served. Run beside an estimate, the batch's tail
// measured when its three replays happened to collide with the other
// client's; alone, it measures the fan-out over both cores.
func tickSchedule(seed int64, features, jobs []string, scenarios int) *schedule {
	rng := rand.New(rand.NewSource(seed))
	var perJob []op
	for _, k := range estimateKeys(features, jobs) {
		if k.job != "" {
			perJob = append(perJob, op{kind: opEstimate, target: estimateTarget(k), lookups: 1})
		}
	}
	s := &schedule{roundLen: 2 + len(perJob)}
	for r := 0; r < tickRounds; r++ {
		changed := make([]string, 1+rng.Intn(3))
		for i := range changed {
			changed[i] = strconv.Itoa(rng.Intn(scenarios))
		}
		s.add(op{kind: opTick, method: "POST", target: "/api/tick", barrier: true,
			body: `{"changed":[` + strings.Join(changed, ",") + `]}`})
		s.add(op{kind: opBatch, target: batchTarget(features, ""), lookups: len(features), barrier: true})
		rng.Shuffle(len(perJob), func(i, j int) { perJob[i], perJob[j] = perJob[j], perJob[i] })
		for _, o := range perJob {
			s.add(o)
		}
	}
	return s
}

// dbTable describes one queryable table for dbSchedule: its length and
// the (column, value) pairs a lookup may filter on.
type dbTable struct {
	name    string
	rows    int
	lookups [][2]string
}

// dbSchedule: half unfiltered pages (seeded offset, limit 1–100), half
// col/eq lookups (limit 1–100). Four in five queries go to samples, one
// in five to job_perf, so each op's median sits inside the samples mode
// rather than on the boundary between the two tables' costs.
func dbSchedule(seed int64, samples, jobPerf dbTable) *schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{}
	for len(s.ops) < dbCycle {
		t := samples
		if rng.Intn(5) == 0 {
			t = jobPerf
		}
		limit := 1 + rng.Intn(100)
		q := url.Values{"table": {t.name}, "limit": {strconv.Itoa(limit)}}
		kind := opDBScan
		if rng.Intn(2) == 0 {
			q.Set("offset", strconv.Itoa(rng.Intn(t.rows)))
		} else {
			kind = opDBLookup
			l := t.lookups[rng.Intn(len(t.lookups))]
			q.Set("col", l[0])
			q.Set("eq", l[1])
		}
		s.add(op{kind: kind, target: "/api/db/query?" + q.Encode()})
	}
	return s
}
