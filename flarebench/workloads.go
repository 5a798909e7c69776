package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"flare/internal/metricdb"
)

// planHot: every body must be byte-identical to a direct evaluation on
// the reference pipeline (an independent build from the same seed).
func planHot(ref *node, seed int64) (*plan, error) {
	features, jobs := paperFeatureNames(), hpJobNames(ref)
	direct, err := directEstimates(ref.pipe, estimateKeys(features, jobs))
	if err != nil {
		return nil, err
	}
	s := hotSchedule(seed, features, jobs)
	want := make([][]byte, len(s.targets))
	for i, t := range s.targets {
		if want[i], err = expectedBody(t, direct); err != nil {
			return nil, err
		}
	}
	return &plan{
		sched: s,
		check: func(o op, body []byte) bool { return bytes.Equal(body, want[o.want]) },
		invariants: func(ph *phase) error {
			// The timed phase is all cache hits: no lookup misses and no
			// replay or estimate computation runs.
			computes, _ := ph.reg.stage("server.estimate")
			return expect(
				fact{"cache misses", ph.reg.counter("flare_estimate_cache_total", `result="miss"`), 0},
				fact{"stale cache entries", ph.reg.counter("flare_estimate_cache_total", `result="stale"`), 0},
				fact{"cache hits", ph.reg.counter("flare_estimate_cache_total", `result="hit"`), float64(ph.lookups)},
				fact{"replays", ph.reg.counter("flare_replays_total"), 0},
				fact{"estimate computations", computes, 0})
		},
	}, nil
}

// tickResponse mirrors the fields of /api/tick's reply the check reads.
type tickResponse struct {
	Added      int `json:"added"`
	Remeasured int `json:"remeasured"`
	Scenarios  int `json:"scenarios"`
}

// planTick: every tick re-measures exactly its IDs and adds nothing;
// after the last round every served estimate must equal a direct
// evaluation on the served pipeline, so no stale cache survives a tick.
func planTick(ref *node, seed int64) (*plan, error) {
	features, jobs := paperFeatureNames(), hpJobNames(ref)
	scenarios := ref.pipe.Dataset().Scenarios.Len()
	s := tickSchedule(seed, features, jobs, scenarios)
	return &plan{
		sched: s,
		check: func(o op, body []byte) bool {
			if o.kind != opTick {
				return true
			}
			var tr tickResponse
			return json.Unmarshal(body, &tr) == nil && tr.Added == 0 &&
				tr.Remeasured == strings.Count(o.body, ",")+1 && tr.Scenarios == scenarios
		},
		post: func(n *node, _ []response, _ map[string]metric) error {
			keys := estimateKeys(features, jobs)
			direct, err := directEstimates(n.pipe, keys)
			if err != nil {
				return err
			}
			var targets []string
			for _, k := range keys {
				targets = append(targets, estimateTarget(k))
			}
			for _, j := range append([]string{""}, jobs...) {
				targets = append(targets, batchTarget(features, j))
			}
			for _, t := range targets {
				want, err := expectedBody(t, direct)
				if err != nil {
					return err
				}
				status, got, err := serve(n.handler, op{method: "GET", target: t})
				if err != nil || status != 200 || !bytes.Equal(got, want) {
					return fmt.Errorf("after the last tick %s served %d %q, direct evaluation gives %q (%v)",
						t, status, got, want, err)
				}
			}
			return nil
		},
		invariants: func(ph *phase) error {
			// Every lookup misses, and each miss is one computation.
			misses := ph.reg.counter("flare_estimate_cache_total", `result="miss"`)
			computes, _ := ph.reg.stage("server.estimate")
			return expect(
				fact{"cache misses", misses, float64(ph.lookups)},
				fact{"cache hits", ph.reg.counter("flare_estimate_cache_total", `result="hit"`), 0},
				fact{"stale cache entries", ph.reg.counter("flare_estimate_cache_total", `result="stale"`), 0},
				fact{"estimate computations", computes, misses})
		},
	}, nil
}

// planDB: queries over samples and job_perf; after the timed phase each
// kept response must equal a direct Table.Select with its predicate.
func planDB(ref *node, seed int64) (*plan, error) {
	samples, err := dbTableOf(ref.db, "samples", "scenario", "metric")
	if err != nil {
		return nil, err
	}
	jobPerf, err := dbTableOf(ref.db, "job_perf", "scenario", "job")
	if err != nil {
		return nil, err
	}
	s := dbSchedule(seed, samples, jobPerf)
	// An unfiltered query must report every row of its table as matched:
	// Table.Select copies them all before paging.
	tableLen := map[string]int{samples.name: samples.rows, jobPerf.name: jobPerf.rows}
	wantTotal := make([]int, len(s.targets))
	for i, t := range s.targets {
		q, err := parseDBQuery(t)
		if err != nil {
			return nil, err
		}
		wantTotal[i] = tableLen[q.table]
	}
	return &plan{
		sched: s,
		check: func(o op, body []byte) bool {
			if o.kind != opDBScan {
				return true
			}
			var got struct {
				Total *int `json:"total_rows"`
			}
			return json.Unmarshal(body, &got) == nil && got.Total != nil && *got.Total == wantTotal[o.want]
		},
		keep: true,
		post: func(n *node, kept []response, layer map[string]metric) error {
			return checkDB(n, s.targets, kept, layer)
		},
		invariants: func(ph *phase) error {
			if ph.reg.counter("flare_store_wal_appends_total") == 0 {
				return fmt.Errorf("no WAL appends in the timed phase: the store was bypassed")
			}
			return nil
		},
	}, nil
}

// dbTableOf describes a table for dbSchedule: its length and every
// distinct value of the lookup columns, in first-seen order.
func dbTableOf(db *metricdb.DB, name string, cols ...string) (dbTable, error) {
	t, err := db.Table(name)
	if err != nil {
		return dbTable{}, err
	}
	rows := t.Select(nil)
	out := dbTable{name: name, rows: t.Len()}
	for _, c := range cols {
		idx, err := t.ColumnIndex(c)
		if err != nil {
			return dbTable{}, err
		}
		typ := t.Columns()[idx].Type
		seen := map[string]bool{}
		for _, r := range rows {
			v := fmt.Sprint(r[idx].I)
			if typ == metricdb.TypeString {
				v = r[idx].S
			}
			if !seen[v] {
				seen[v] = true
				out.lookups = append(out.lookups, [2]string{c, v})
			}
		}
	}
	return out, nil
}

// checkDB compares every kept query response with the body a direct
// Table.Select with the same predicate gives, and adds the copy ratio.
// The body comparison pins the served total_rows, so the ratio is that
// of the served responses.
func checkDB(n *node, targets []string, kept []response, layer map[string]metric) error {
	oracle := newDBOracle(n.db)
	sums := map[int]uint64{} // expected body hash by target
	var copied, returned float64
	for _, r := range kept {
		q, err := parseDBQuery(targets[r.want])
		if err != nil {
			return err
		}
		rows, total, err := oracle.result(q)
		if err != nil {
			return err
		}
		sum, ok := sums[r.want]
		if !ok {
			want, err := oracle.expected(q)
			if err != nil {
				return err
			}
			sum = bodySum(want)
			sums[r.want] = sum
		}
		if r.sum != sum {
			want, _ := oracle.expected(q)
			return fmt.Errorf("%s: served body differs from direct Select's %.200q", targets[r.want], want)
		}
		copied += float64(total)
		returned += float64(rows)
	}
	layer["metricdb.rows_copied_per_row_returned"] = metric{ratio(copied, returned), "ratio"}
	return nil
}

// fact is one counter reading and the value it must have.
type fact struct {
	what      string
	got, want float64
}

func expect(facts ...fact) error {
	var bad []string
	for _, f := range facts {
		if f.got != f.want {
			bad = append(bad, fmt.Sprintf("%s = %v, want %v", f.what, f.got, f.want))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("invariant broken: %s", strings.Join(bad, "; "))
	}
	return nil
}

// layerMetrics fills every per-layer metric. Those of a layer the
// workload does not use read 0.
func layerMetrics(layer map[string]metric, ph *phase, setup regSnap, traced bool) {
	r, f := ph.reg, ph.fold
	req := float64(ph.attempts)
	set := func(name string, v float64, unit string) {
		if _, ok := layer[name]; !ok {
			layer[name] = metric{v, unit}
		}
	}
	// Set-up stages, averaged over the run's set-ups.
	set("dcsim.run_ms", setup.stageMean(time.Millisecond, "bench.dcsim.run"), "ms")
	set("profiler.collect_ms", setup.stageMean(time.Millisecond, "profiler.collect"), "ms")
	set("analyzer.analyze_ms", setup.stageMean(time.Millisecond, "pipeline.analyze"), "ms")
	set("core.persist_ms", setup.stageMean(time.Millisecond, "pipeline.persist"), "ms")
	set("profiler.store_ms", setup.stageMean(time.Millisecond, "profiler.store"), "ms")

	// Server and telemetry on the request path.
	set("server.estimate_http_self_us", f.selfUs("http./api/estimate"), "us")
	set("server.batch_http_self_us", f.selfUs("http./api/estimate/batch"), "us")
	set("server.tick_http_self_us", f.selfUs("http./api/tick"), "us")
	set("server.dbquery_http_self_us", f.selfUs("http./api/db/query"), "us")
	set("server.resp_bytes", ratio(float64(ph.respB), req), "bytes")
	logEvents := r.counter("flare_log_events_total")
	exported := r.counter("flare_trace_exported_total")
	dropped := r.counter("flare_trace_export_dropped_total")
	set("obs.log_events_per_req", ratio(logEvents, req), "ratio")
	set("obs.exported_rows", exported, "count")
	set("obs.export_drop_ratio", ratio(dropped, exported+dropped), "ratio")
	set("go.alloc_bytes_per_req", ratio(ph.rt.allocBytes, req), "bytes")
	set("go.allocs_per_req", ratio(ph.rt.allocObjects, req), "count")
	set("go.gc_cycles", ph.rt.gcCycles, "count")

	// Estimate cache, replay and retry.
	hits := r.counter("flare_estimate_cache_total", `result="hit"`)
	misses := r.counter("flare_estimate_cache_total", `result="miss"`)
	stale := r.counter("flare_estimate_cache_total", `result="stale"`)
	computes, _ := r.stage("server.estimate")
	set("server.cache_hit_ratio", ratio(hits, hits+misses+stale), "ratio")
	set("server.cache_misses", misses, "count")
	set("server.estimate_compute_us", r.stageMean(time.Microsecond, "server.estimate"), "us")
	set("replayer.replays_per_estimate", ratio(r.counter("flare_replays_total"), computes), "ratio")
	set("replayer.estimate_us", r.stageMean(time.Microsecond, "replay.estimate", "replay.estimate_per_job"), "us")
	set("replayer.scenario_self_us", f.selfUs("replay.scenario"), "us")
	attempts := r.counter("flare_retry_attempts_total")
	set("retry.attempts_per_call", ratio(attempts, attempts-r.counter("flare_retry_retries_total")), "ratio")
	set("retry.giveups", r.counter("flare_retry_giveups_total"), "count")

	// Tick path.
	set("profiler.tick_us", r.stageMean(time.Microsecond, "profiler.tick"), "us")
	set("analyzer.tick_us", r.stageMean(time.Microsecond, "analyze.tick"), "us")
	set("analyzer.rebuilds", float64(f.rebuilt), "count")
	set("core.tick_self_us", f.selfUs("pipeline.tick"), "us")

	// Metric database and store.
	set("metricdb.rows_copied_per_row_returned", 0, "ratio")
	persistCalls := r.counter("flare_retry_attempts_total", `op="server.persist"`) -
		r.counter("flare_retry_retries_total", `op="server.persist"`)
	set("metricdb.inserts", exported+persistCalls, "count")
	appends := r.counter("flare_store_wal_appends_total")
	set("store.wal_appends", appends, "count")
	set("store.appends_per_commit", ratio(appends, r.counter("flare_store_wal_commit_batches_total")), "ratio")
	set("store.wal_bytes_per_req", ratio(r.counter("flare_store_wal_bytes_total"), req), "bytes")
	set("store.fsync_ms", 1000*ratio(r.sum("flare_store_wal_fsync_seconds", "#sum"),
		r.sum("flare_store_wal_fsync_seconds", "#count")), "ms")
	set("store.flushes", r.counter("flare_store_flushes_total"), "count")
	set("store.compactions", r.counter("flare_store_compactions_total"), "count")

	// Failures.
	set("server.shed", r.counter("flare_shed_total"), "count")
	set("server.timeouts", r.counter("flare_request_timeouts_total"), "count")
	set("error_rate", ratio(float64(ph.failed), req), "ratio")
	if traced {
		set("bench.traced_rps", req/ph.elapsed.Seconds(), "1/s")
	}
}
