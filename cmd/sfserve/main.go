// Command sfserve is the simulation service: an HTTP daemon that runs
// simulation jobs through a bounded worker pool and a content-addressed
// result cache, so identical (config, benchmark, scale) points — which are
// fully deterministic — are simulated once and served from cache thereafter.
//
// Usage:
//
//	sfserve -addr :8080 -cache /var/cache/sf -workers 8 -queue 64
//
// Endpoints:
//
//	POST /run          {"system":"SF","core":"OOO8","benchmark":"mv","scale":0.25}
//	                   (or {"config":{...},"benchmark":"mv","scale":0.25} for
//	                   arbitrary sweep points shipped by a cluster client)
//	POST /jobs         {"figure":{"id":"13","scale":0.05}}: an async figure
//	                   regeneration; returns a job id immediately. Poll
//	                   GET /jobs/{id}, fetch GET /jobs/{id}/result (the
//	                   figure's JSON table; for text or CSV: sfexp -fig 13
//	                   -backends host:8080 [-csv]), cancel with
//	                   DELETE /jobs/{id}. A single point is a /run. With
//	                   -journal, jobs survive a crash and resume on
//	                   restart; with -cache too, their completed and
//	                   quarantined points replay from the cache.
//	GET  /healthz
//	GET  /metrics      (includes per-origin request counters keyed by the
//	                   X-SF-Origin header, so backend load is attributable
//	                   to the sweeps driving it)
//
// -workers bounds running jobs, not simulations: a /run simulates one
// point, while a figure job holds one slot and runs its sweep at
// GOMAXPROCS parallelism inside it. /run and POST /jobs share
// one bound: with -workers + -queue jobs queued or running, both answer
// 429. Jobs are cancellable end to end: a client disconnect, a DELETE or
// the per-job timeout stops the simulation at its next event-loop
// cancellation check instead of letting it run to completion.
// SIGTERM/SIGINT drain gracefully: health flips to 503, new jobs are
// rejected, in-flight jobs finish (up to -drain-timeout), then the listener
// closes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streamfloat/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sfserve: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		cacheDir     = flag.String("cache", "", "result-cache directory (empty = in-memory only)")
		cacheEntries = flag.Int("cache-entries", 0, "max in-memory cached results (0 = default)")
		journalDir   = flag.String("journal", "", "async-job journal directory: jobs submitted via POST /jobs survive restarts and resume; pair with -cache, which holds the resume state (completed and quarantined points)")
		workers      = flag.Int("workers", 0, "concurrently running jobs: a /run simulates one point, a figure job runs its whole sweep at GOMAXPROCS parallelism in one slot (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "queued /run and async jobs before 429 backpressure")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "per-job wall-clock cap")
		stallTimeout = flag.Duration("stall-timeout", 0, "per-point watchdog: a simulation whose event loop stops advancing for this long is killed as stuck (0 = off)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown window on SIGTERM")
	)
	flag.Parse()

	store, err := serve.NewStore(*cacheEntries, *cacheDir)
	if err != nil {
		return err
	}
	var journal *serve.Journal
	if *journalDir != "" {
		if *cacheDir == "" {
			log.Printf("warning: -journal without -cache: a resumed job recomputes every point, quarantined ones included (results and quarantine entries are not persisted)")
		}
		journal, err = serve.OpenJournal(*journalDir)
		if err != nil {
			return err
		}
	}
	handler := serve.NewServer(serve.Config{
		Store:        store,
		Workers:      *workers,
		QueueDepth:   *queue,
		JobTimeout:   *jobTimeout,
		StallTimeout: *stallTimeout,
		Journal:      journal,
	})
	srv := &http.Server{Addr: *addr, Handler: handler}

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (cache dir %q)", *addr, *cacheDir)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("%s: draining (%s window)", sig, *drainTimeout)
		handler.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Async jobs outlive their submitting request, so Shutdown alone
		// would not wait for them. Journaled jobs that miss the window
		// resume on the next start; unjournaled ones are lost, so give
		// them the same drain budget as in-flight requests.
		if err := handler.WaitJobs(ctx); err != nil {
			log.Printf("drain window expired with async jobs still running")
		}
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		st := store.Stats()
		log.Printf("drained; cache: %d mem hits, %d disk hits, %d misses, %d dedups",
			st.Hits, st.DiskHits, st.Misses, st.Dedups)
		return nil
	}
}
