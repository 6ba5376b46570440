// Command brokerd serves posted-price mechanisms over HTTP/JSON: many
// independent pricing streams (one per consumer segment or query family)
// behind a sharded registry. A stream is a pricing family plus a model
// config — "linear" (the ellipsoid mechanism, default), "nonlinear"
// (links, feature maps, landmark kernels), or "sgd" (the gradient
// comparator) — all hosted behind the same create/price/snapshot/restore
// surface.
//
// Usage:
//
//	brokerd -addr :8080 -shards 32
//
// With -data-dir, streams survive restarts: every create/restore/delete
// is journaled write-ahead into the WAL, a background checkpointer
// appends deltas for streams whose state changed, and boot replays the
// checkpoint plus the WAL back into the registry (shards restore in
// parallel), truncating a torn tail a crash left. Concurrent appenders
// share fsyncs via group commit — each write carries whatever queued
// while the previous one was on disk — and compaction folds the WAL
// into the checkpoint once it outgrows 64 MiB:
//
//	brokerd -addr :8080 -data-dir /var/lib/brokerd \
//	        -checkpoint-interval 5s -fsync always
//
// The wire contract is the public datamarket/api package and is
// versioned: GET /v1/version reports it, every non-2xx response carries
// the {"error":{"code","message"}} envelope, and the official Go SDK in
// datamarket/client wraps the whole surface (connection pooling,
// retries with backoff, auto-batching, two-phase sessions).
//
// Quickstart:
//
//	curl localhost:8080/v1/version
//	curl -X POST localhost:8080/v1/streams \
//	     -d '{"id":"segment-a","dim":5,"reserve":true,"horizon":10000}'
//	curl -X POST localhost:8080/v1/streams/segment-a/price \
//	     -d '{"features":[0.2,0.1,0.3,0.2,0.2],"reserve":0.4,"valuation":1.1}'
//	curl localhost:8080/v1/streams/segment-a/stats
//	curl localhost:8080/v1/streams/segment-a/snapshot > segment-a.json
//	curl -X POST localhost:8080/v1/streams/segment-a/restore -d @segment-a.json
//	curl -X POST localhost:8080/v1/admin/checkpoint?compact=true
//	curl localhost:8080/v1/admin/store
//
// Hosted markets run the paper's full owner/compensation/settlement
// loop behind the same edge:
//
//	curl -X POST localhost:8080/v1/markets -d '{
//	  "id":"m","owners":[
//	    {"value":3.5,"range":4,"contract":{"type":"tanh","rho":1,"eta":10}},
//	    {"value":2.0,"range":4,"contract":{"type":"tanh","rho":1,"eta":10}}]}'
//	curl -X POST localhost:8080/v1/markets/m/trade \
//	     -d '{"weights":[1,0.5],"noise_variance":2,"valuation":1.2}'
//	curl localhost:8080/v1/markets/m/ledger
//	curl localhost:8080/v1/markets/m/payouts
//	curl localhost:8080/v1/markets/m/stats
//
// Non-linear families ride the same endpoints; only create changes:
//
//	curl -X POST localhost:8080/v1/streams -d '{
//	  "id":"hedonic","family":"nonlinear","dim":5,"reserve":true,
//	  "model":{"link":"exp"}}'
//	curl -X POST localhost:8080/v1/streams -d '{
//	  "id":"kernelized","family":"nonlinear","dim":2,
//	  "model":{"map":"landmark","kernel":{"type":"rbf","gamma":0.8},
//	           "landmarks":[[0,0],[0.5,0.5],[1,1]]}}'
//	curl -X POST localhost:8080/v1/streams -d '{
//	  "id":"baseline","family":"sgd","dim":5,"reserve":true,
//	  "model":{"eta0":0.5,"margin":1.0}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"datamarket/api"
	"datamarket/internal/server"
	"datamarket/internal/store"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		shards  = flag.Int("shards", server.DefaultShards, "registry shard count")
		dataDir = flag.String("data-dir", "", "journal directory for durable streams (empty: in-memory only)")
		ckptIvl = flag.Duration("checkpoint-interval", server.DefaultCheckpointInterval, "background checkpointer period")
		fsync   = flag.String("fsync", string(store.FsyncInterval), "journal fsync policy: always, interval, or never")
		verbose = flag.Bool("verbose", false, "log every request (method, path, status, latency) and checkpoint activity")
	)
	flag.Parse()

	if err := run(*addr, *shards, *dataDir, *ckptIvl, *fsync, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "brokerd:", err)
		os.Exit(1)
	}
}

func run(addr string, shards int, dataDir string, ckptIvl time.Duration, fsync string, verbose bool) error {
	reg := server.NewRegistry(shards)
	srv := server.NewServer(reg)

	var persister *server.Persister
	if dataDir != "" {
		policy, err := store.ParseFsyncPolicy(fsync)
		if err != nil {
			return err
		}
		st, err := store.OpenJournal(store.JournalConfig{Dir: dataDir, Fsync: policy})
		if err != nil {
			return err
		}
		cfg := server.PersistConfig{Interval: ckptIvl}
		if verbose {
			cfg.Logf = log.Printf
		}
		p, recovered, err := server.AttachPersistence(reg, st, cfg)
		if err != nil {
			st.Close()
			return fmt.Errorf("recovering from %s: %w", dataDir, err)
		}
		persister = p
		srv.SetPersister(p)
		log.Printf("brokerd: recovered %d stream(s) from %s (fsync=%s, checkpoint every %s)",
			recovered, dataDir, policy, ckptIvl)
	}

	handler := srv.Handler()
	if verbose {
		handler = server.WithRequestLog(handler, log.Printf)
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("brokerd %s (API %s) listening on %s (%d shards)",
			server.Version, api.APIVersion, addr, shards)
		errCh <- httpSrv.ListenAndServe()
	}()

	shutdown := func() error {
		// The HTTP edge drains first so the final checkpoint sees no
		// in-flight rounds, then the persister takes its final pass,
		// compacts, and closes the store. Both error signals matter — a
		// drain timeout must not mask an uncaptured-state report.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(ctx)
		if persister != nil {
			err = errors.Join(err, persister.Shutdown())
		}
		return err
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if persister != nil {
			err = errors.Join(err, persister.Shutdown())
		}
		return err
	case sig := <-stop:
		log.Printf("brokerd: %v, shutting down", sig)
		if err := shutdown(); err != nil {
			return err
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
