package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"flare/internal/core"
	"flare/internal/dcsim"
	"flare/internal/machine"
	"flare/internal/metricdb"
	"flare/internal/obs"
	"flare/internal/server"
	"flare/internal/store"
)

// Paper-scale node shape, as flare-server runs it (its -clusters default
// and dcsim's 28-day default window) with flare-server's resilience
// defaults.
const (
	simDays        = 28
	clusters       = 18
	maxConcurrent  = 64
	requestTimeout = 30 * time.Second
	estRefresh     = 15 * time.Minute
)

// node is one in-process FLARE server wired the way cmd/flare-server
// wires it: trace export into the metric database, a wide-event logger
// at info level (writing to io.Discard instead of stdout), the
// production limiter and timeout, and — for db-durable — a metric
// database journaled through internal/store.
type node struct {
	pipe    *core.Pipeline
	db      *metricdb.DB
	st      *store.Store // nil unless store-backed
	dir     string       // store directory, removed by close
	srv     *server.Server
	handler http.Handler
}

// buildNode builds a node from seed. With storeDir set the metric
// database is store-backed in that (fresh) directory. traced wraps each
// set-up call in a span of the benchmark's own ("bench.*").
func buildNode(seed int64, storeDir string, tracer *obs.Tracer, traced bool) (n *node, err error) {
	reg := tracer.Registry()
	n = &node{dir: storeDir}
	defer func() {
		if err != nil {
			n.close()
		}
	}()
	if storeDir != "" {
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			return nil, err
		}
		// A run may write only inside its checkout, which sits on a disk
		// where an fsync per journaled row turns set-up into a disk
		// benchmark (13–15 s, against 2.2 s on tmpfs). Without SyncWrites
		// every row still takes the WAL, memtable, flush and compaction
		// path, and an fsync costs what it costs on tmpfs: nothing.
		stOpts := store.DefaultOptions()
		stOpts.SyncWrites = false
		n.st, err = store.Open(storeDir, stOpts)
		if err != nil {
			return nil, fmt.Errorf("opening store: %w", err)
		}
		if n.db, err = metricdb.OpenDB(n.st); err != nil {
			return nil, fmt.Errorf("opening metric database: %w", err)
		}
	} else {
		n.db = metricdb.NewDB()
	}

	ctx := obs.WithTracer(context.Background(), tracer)
	ctx, buildSpan := obs.StartSpan(ctx, "server.build")
	defer buildSpan.End()
	var trace *dcsim.Trace
	err = step(ctx, traced, "bench.dcsim.run", func(context.Context) error {
		simCfg := dcsim.DefaultConfig()
		simCfg.Seed = seed
		simCfg.Duration = simDays * 24 * time.Hour
		var err error
		trace, err = dcsim.Run(simCfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Profile.Seed = seed
	cfg.Analyze.Seed = seed
	cfg.Analyze.Clusters = clusters
	if n.pipe, err = core.New(cfg); err != nil {
		return nil, err
	}
	if err := step(ctx, traced, "bench.profile", func(ctx context.Context) error {
		return n.pipe.ProfileContext(ctx, trace.Scenarios)
	}); err != nil {
		return nil, err
	}
	if err := step(ctx, traced, "bench.analyze", n.pipe.AnalyzeContext); err != nil {
		return nil, err
	}
	if err := step(ctx, traced, "bench.persist", func(ctx context.Context) error {
		return n.pipe.PersistDatasetContext(ctx, n.db)
	}); err != nil {
		return nil, err
	}

	if n.srv, err = server.NewWithTelemetry(n.pipe, machine.PaperFeatures(), reg, tracer); err != nil {
		return nil, err
	}
	n.srv.AttachDB(n.db)
	n.srv.SetResilience(server.Options{
		RequestTimeout:  requestTimeout,
		MaxConcurrent:   maxConcurrent,
		EstimateRefresh: estRefresh,
	})
	if err := n.srv.EnableTraceExport(n.db, server.ExportOptions{Retain: server.DefaultExportRetain}); err != nil {
		return nil, err
	}
	n.srv.SetLogger(obs.NewLogger(io.Discard, obs.LoggerOptions{
		Level:    obs.LevelInfo,
		Registry: reg,
		Hook:     n.srv.EventHook(),
	}))
	n.handler = n.srv.Handler()
	return n, nil
}

// close drains the exporter, closes the store and removes its directory.
func (n *node) close() error {
	if n.srv != nil {
		n.srv.CloseTelemetry()
	}
	var err error
	if n.st != nil {
		err = n.st.Close()
	}
	if n.dir != "" {
		if rerr := os.RemoveAll(n.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// step runs fn, inside a span named name when traced.
func step(ctx context.Context, traced bool, name string, fn func(context.Context) error) error {
	if !traced {
		return fn(ctx)
	}
	ctx, span := obs.StartSpan(ctx, name)
	defer span.End()
	return fn(ctx)
}
