// Command earthd is the sharded compile-and-simulate daemon: it accepts
// EARTH-C compile-and-simulate jobs over HTTP/JSON, runs them across N
// pipeline shards with single-flight batching of identical sources, and
// serves aggregated telemetry.
//
// Usage:
//
//	earthd [flags]
//
//	-addr host:port   listen address (default :8080; use 127.0.0.1:0 for a
//	                  random port — the bound address is logged)
//	-shards N         pipeline shards (default GOMAXPROCS, capped at 8)
//	-queue N          job queue depth; a full queue answers 429 with
//	                  Retry-After (default 64)
//	-j N              analysis workers per compile (default 1)
//	-nodes N          default simulated machine size for jobs (default 4)
//	-max-fuel N       per-job simulated instruction cap (default 500M;
//	                  negative = unlimited)
//	-job-deadline d   per-job host wall-clock budget from acceptance to
//	                  completion (queue wait included); exceeding it aborts
//	                  the job with 504 (default 60s)
//	-drain d          drain timeout on SIGINT/SIGTERM (default 30s)
//	-cache-size N     shared compile cache capacity in units (default 64;
//	                  negative disables caching)
//	-cache-dir dir    persist compile artifacts under dir across restarts
//	-journal-dir dir  durable job journal: accepted jobs are fsynced before
//	                  acknowledgement; on restart unfinished jobs replay and
//	                  completed ones answer re-submissions exactly once
//	-brownout-after d shed trace-enabled jobs with 429 once measured queue
//	                  wait exceeds d (0 = off)
//	-obs              record per-job host-side timelines: span trees served
//	                  by GET /jobs/{id}/timeline and /debug/jobs, per-stage
//	                  latency histograms in /metrics (default true)
//	-obs-recent N     completed timelines retained in the ring (default 64)
//	-obs-slowest N    slowest timelines retained alongside it (default 16)
//	-slow-job d       dump the timeline of any job slower than d into the
//	                  log (0 = off)
//	-log-format f     structured log encoding: text or json (default text)
//	-log-level l      log verbosity: debug, info, warn, error (default info;
//	                  debug adds a line per job, info an access-log line per
//	                  request)
//
// Submit a job:
//
//	curl -s localhost:8080/jobs -d '{"benchmark":"power","nodes":4,"quick":true}'
//	curl -s localhost:8080/jobs -d '{"source":"int main() { return 42; }","nodes":1}'
//
// Abort a job: DELETE /jobs/{id}; poll one: GET /jobs/{id} (ids come from
// the "id" request field or the result's job_id). Debug a slow one:
// GET /jobs/{id}/timeline?format=text.
//
// On SIGINT/SIGTERM the daemon stops intake (new submissions get 503),
// finishes every accepted job, flushes in-flight responses, and exits 0;
// jobs accepted before the signal are never lost. With -journal-dir, jobs
// survive even a SIGKILL: the journal replays them on the next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 0, "pipeline shards (0 = GOMAXPROCS capped at 8)")
	queue := flag.Int("queue", 0, "job queue depth (0 = default 64)")
	workers := flag.Int("j", 0, "analysis workers per compile (0 = default 1)")
	simJ := flag.Int("sim-j", 0, "simulator event-loop workers per run (0 = 1); results are identical for any value")
	nodes := flag.Int("nodes", 0, "default simulated machine size (0 = default 4)")
	maxFuel := flag.Int64("max-fuel", 0, "per-job instruction cap (0 = default 500M, negative = unlimited)")
	jobDeadline := flag.Duration("job-deadline", 0, "per-job wall-clock budget, acceptance to completion; exceeded → 504 (0 = default 60s)")
	drain := flag.Duration("drain", 30*time.Second, "drain timeout on SIGINT/SIGTERM")
	cacheSize := flag.Int("cache-size", 0, "compile cache capacity in units (0 = default 64, negative = disabled)")
	cacheDir := flag.String("cache-dir", "", "persist compile artifacts here across restarts")
	journalDir := flag.String("journal-dir", "", "durable job journal directory (empty = journaling off)")
	brownout := flag.Duration("brownout-after", 0, "shed trace-enabled jobs once measured queue wait exceeds this (0 = off)")
	obsOn := flag.Bool("obs", true, "record per-job host-side timelines (GET /jobs/{id}/timeline, /debug/jobs)")
	obsRecent := flag.Int("obs-recent", 0, "completed timelines retained in the ring (0 = default 64)")
	obsSlowest := flag.Int("obs-slowest", 0, "slowest completed timelines retained (0 = default 16)")
	slowJob := flag.Duration("slow-job", 0, "dump timelines of jobs slower than this into the log (0 = off)")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	flag.Parse()
	if *simJ < 0 {
		fmt.Fprintf(os.Stderr, "earthd: -sim-j must be ≥ 0, got %d\n", *simJ)
		os.Exit(2)
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: earthd [flags]")
		flag.Usage()
		os.Exit(2)
	}

	log, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "earthd:", err)
		os.Exit(2)
	}

	d, err := server.Open(server.Config{
		Shards:        *shards,
		QueueDepth:    *queue,
		Workers:       *workers,
		DefaultNodes:  *nodes,
		MaxFuel:       *maxFuel,
		JobDeadline:   *jobDeadline,
		SimWorkers:    *simJ,
		CacheSize:     *cacheSize,
		CacheDir:      *cacheDir,
		JournalDir:    *journalDir,
		BrownoutAfter: *brownout,
		Obs: obs.Options{
			Enabled: *obsOn,
			Recent:  *obsRecent,
			Slowest: *obsSlowest,
			SlowJob: *slowJob,
		},
		Logger: log,
	})
	if err != nil {
		log.Error("startup failed", "err", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: d.Handler()}
	cfg := d.Config()
	// The bound address stays inside the message text: the boot smoke in
	// check.sh and the chaos harness both scan for "listening on <addr>".
	build := obs.Info()
	log.Info(fmt.Sprintf("listening on %s (%d shards, queue %d)", ln.Addr(), cfg.Shards, cfg.QueueDepth),
		"revision", build.ShortRevision(), "go", build.GoVersion, "obs", *obsOn)
	if cfg.JournalDir != "" {
		log.Info("journaling jobs", "dir", cfg.JournalDir)
	}

	done := server.ShutdownOnSignal(*drain, func(ctx context.Context) error {
		log.Info("draining (intake stopped, finishing accepted jobs)")
		// Drain first so every accepted job completes and its waiting
		// handler gets the outcome, then let the HTTP server retire those
		// in-flight responses.
		if err := d.Drain(ctx); err != nil {
			srv.Close()
			return err
		}
		return srv.Shutdown(ctx)
	})

	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Error("serve failed", "err", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		log.Error("drain failed", "err", err)
		os.Exit(1)
	}
	log.Info("drained cleanly")
}
