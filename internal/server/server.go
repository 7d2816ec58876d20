// Package server implements earthd, the long-lived sharded
// compile-and-simulate service over core.Pipeline: jobs (EARTH-C source ×
// cost-model/fault config) arrive over HTTP/JSON, flow through a bounded
// queue with backpressure, and execute on one of N pipeline shards. Three
// properties make it a traffic-serving system rather than a CLI in a loop:
//
//   - Backpressure, not buffering. The job queue is bounded; when it is
//     full the service answers 429 with a Retry-After hint instead of
//     accepting unbounded work. A draining server answers 503.
//
//   - Single-flight batching composed with a shared compile cache.
//     Concurrent submissions of the same source (keyed by
//     profile.HashSource plus the compile-relevant options) share one
//     compile: the first submission compiles, the duplicates wait on it and
//     run the shared unit. Repeat submissions after the flight disperses
//     are served whole from the server's content-hashed cache
//     (internal/cache), so concurrent duplicates cost one compile and
//     repeated duplicates cost zero. Compilation is deterministic, so
//     identical requests produce byte-identical result payloads whether
//     they were batched, cached, or compiled cold.
//
//   - Aggregated observability. Each shard records into its own
//     metrics.Registry (no cross-shard contention); every /metrics scrape
//     folds the shard registries, the service registry, and process-level
//     runtime metrics into one exposition via metrics.Merge.
//
// Drain (wired to SIGTERM in cmd/earthd) stops intake, lets the workers
// finish every accepted job, and only then releases the HTTP server — an
// accepted job is never lost to a shutdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Config sizes the service.
type Config struct {
	// Shards is the number of pipeline shards, each with a dedicated worker
	// goroutine and its own metrics registry (default GOMAXPROCS, capped at
	// 8).
	Shards int
	// QueueDepth bounds the job queue (default 64). A full queue rejects
	// with 429 + Retry-After.
	QueueDepth int
	// Workers is the per-compile analysis worker count (core.Options.Workers;
	// default 1 — shard-level parallelism is usually the better use of cores
	// under load).
	Workers int
	// DefaultNodes is the machine size for jobs that don't specify one
	// (default 4).
	DefaultNodes int
	// MaxFuel caps simulated EU instructions per job, including jobs that
	// ask for no limit, so one runaway program cannot pin a shard forever
	// (default 500M; set negative for unlimited).
	MaxFuel int64
	// JobDeadline bounds a job's host wall-clock time from acceptance to
	// completion, queue wait included (default 60s); exceeding it aborts the
	// run via its cancellation context and answers 504.
	JobDeadline time.Duration
	// SimWorkers is the number of goroutines driving each job's simulator
	// windows (earthsim.Config.SimWorkers; 0 means 1, negative is an
	// error). Results are bit-identical for any value, so this is purely a
	// throughput knob.
	SimWorkers int
	// RetryAfter is the hint returned with 429/503 responses (default 1s).
	RetryAfter time.Duration
	// CacheSize caps the shared compile cache (units; default
	// cache.DefaultCapacity, negative disables caching entirely).
	CacheSize int
	// CacheDir, when set, persists compile artifacts on disk across
	// restarts (core cache's -cache-dir store).
	CacheDir string
	// JournalDir, when set, enables the crash-safety layer: every accepted
	// job is journaled (fsynced) before its acceptance is acknowledged, and
	// on restart unfinished jobs replay through the queue while completed
	// ones answer re-submissions from their journaled payloads. Empty
	// disables journaling entirely (zero hot-path cost).
	JournalDir string
	// BrownoutAfter sheds trace-enabled jobs (the most expensive class) with
	// 429 once the measured queue-wait EWMA exceeds this threshold, keeping
	// latency bounded for plain jobs. 0 disables.
	BrownoutAfter time.Duration
	// RetainResults caps the terminal-job index serving GET /jobs/{id} and
	// exactly-once re-submission (default 4096, oldest evicted first; also
	// the journal's completion-retention window).
	RetainResults int
	// Obs configures host-side job tracing (GET /jobs/{id}/timeline,
	// /debug/jobs, per-stage latency histograms). Disabled by default — a
	// disabled recorder is nil and costs one nil check per instrumentation
	// point.
	Obs obs.Options
	// Logger receives the server's structured diagnostics (job lifecycle,
	// slow-job timeline dumps, access log). Nil discards everything.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = min(runtime.GOMAXPROCS(0), 8)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.DefaultNodes <= 0 {
		c.DefaultNodes = 4
	}
	if c.MaxFuel == 0 {
		c.MaxFuel = 500_000_000
	}
	if c.JobDeadline <= 0 {
		c.JobDeadline = 60 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.RetainResults <= 0 {
		c.RetainResults = 4096
	}
	return c
}

// shard is one execution lane: a dedicated worker goroutine draining the
// shared queue into this shard's pipelines. The registry, trace recorder,
// and sampler are per-shard so the hot path never contends across shards;
// the recorder and sampler are reused job to job (the worker is sequential)
// and the scrape endpoints read them concurrently through their own locks.
type shard struct {
	id      int
	reg     *metrics.Registry
	rec     *trace.Recorder
	sampler *metrics.Sampler
	jobs    atomic.Int64 // jobs completed on this shard
}

// flight is one shared compile. Jobs attach at submit time (refs, guarded
// by Server.fmu) and the first worker to reach an attached job performs the
// compile; the entry lives until the last attached job has executed, so the
// batching window spans the whole queue residency of the duplicates — not
// just the compile's own duration. Submit-time attachment is what makes the
// guarantee deterministic: any set of identical jobs submitted while one of
// them is still pending or running shares exactly one compile.
type flight struct {
	refs    int  // attached jobs not yet finished executing
	started bool // a worker has claimed the compile
	done    chan struct{}
	unit    *core.Unit
	hit     bool // the compile was served whole from the unit cache
	err     error
}

// Server is the sharded compile-and-simulate service.
type Server struct {
	cfg    Config
	reg    *metrics.Registry // service-level registry
	proc   *metrics.ProcessCollector
	shards []*shard
	cache  *cache.Cache // shared across shards; nil when CacheSize < 0
	start  time.Time

	// obs records per-job host-side span timelines (nil when disabled).
	// Like proc, it lives outside the shard pipeline registries: host
	// wall-clock quantities never reach the byte-deterministic telemetry.
	obs *obs.Recorder
	log *slog.Logger
	// logDebug/logInfo cache the logger's level gates so hot paths skip
	// slog's argument boxing entirely when a level is off (handler levels
	// are fixed at construction).
	logDebug bool
	logInfo  bool

	mu       sync.Mutex // guards draining + queue close
	draining bool
	queue    chan *job

	fmu     sync.Mutex
	flights map[string]*flight

	// jr is the durability journal (nil when Config.JournalDir is empty);
	// jmu guards the submission index (jobs + jobOrder), and replayWg
	// tracks the restart-replay feeder so Drain can wait for it before
	// closing the queue.
	jr       *journal.Journal
	jmu      sync.Mutex
	jobs     map[string]*jobState
	jobOrder []string
	replayWg sync.WaitGroup

	// svcEwmaNs estimates per-job service time (drives Retry-After);
	// waitEwmaNs estimates queue wait (drives the brownout knob).
	svcEwmaNs  atomic.Int64
	waitEwmaNs atomic.Int64

	nextID    atomic.Uint64
	accepted  atomic.Int64
	completed atomic.Int64

	wg sync.WaitGroup
}

// New builds a server and starts its shard workers. It panics if the
// configuration cannot be realized, which is only possible with JournalDir
// set (an unopenable journal directory); journaled deployments should use
// Open and handle the error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("server.New: %v", err))
	}
	return s
}

// Open builds a server, recovers its journal (when Config.JournalDir is
// set), and starts its shard workers. Journaled jobs left unfinished by the
// previous process re-enter the queue in the background; completed ones
// answer re-submissions from their journaled payloads.
func Open(cfg Config) (*Server, error) {
	if cfg.SimWorkers < 0 {
		return nil, fmt.Errorf("SimWorkers must be ≥ 0, got %d", cfg.SimWorkers)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     metrics.NewRegistry(),
		proc:    metrics.NewProcessCollector(),
		queue:   make(chan *job, cfg.QueueDepth),
		flights: make(map[string]*flight),
		jobs:    make(map[string]*jobState),
		start:   time.Now(),
		obs:     obs.New(cfg.Obs),
		log:     cfg.Logger,
	}
	if s.log == nil {
		s.log = obs.Discard()
	} else {
		s.logDebug = s.log.Enabled(context.Background(), slog.LevelDebug)
		s.logInfo = s.log.Enabled(context.Background(), slog.LevelInfo)
	}
	if cfg.CacheSize >= 0 {
		s.cache = cache.New(cfg.CacheSize, cfg.CacheDir)
	}
	var rec *journal.Recovery
	if cfg.JournalDir != "" {
		jr, r, err := journal.Open(cfg.JournalDir, journal.Options{Retain: cfg.RetainResults})
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		s.jr, rec = jr, r
	}
	s.reg.Gauge("earthd_shards", "Pipeline shards serving the job queue.").Set(int64(cfg.Shards))
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id:      i,
			reg:     metrics.NewRegistry(),
			rec:     trace.NewRecorder(0),
			sampler: metrics.NewSampler(0, 0),
		}
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go s.worker(sh)
	}
	if rec != nil {
		s.recover(rec)
	}
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Submission describes one accepted (or deduplicated) submission.
type Submission struct {
	// JobID is the submission's idempotency key — the handle for
	// GET/DELETE /jobs/{id}.
	JobID string
	// Res receives the job's outcome exactly once.
	Res <-chan jobOutcome
	// Served reports that the outcome was answered from a completed job's
	// record (already buffered on Res) without running anything.
	Served bool
	// Owner reports that this submission enqueued the job (as opposed to
	// coalescing onto an identical in-flight one); only the owner's client
	// disconnect should cancel it.
	Owner bool
}

// Submit validates req and places it on the queue, returning the channel
// the job's outcome arrives on. A *jobError return means the job was NOT
// accepted: 400 for validation failures, 429 when the queue is full (or
// shed by brownout), 503 when the server is draining. Once accepted, a job
// always produces exactly one outcome, even through a drain.
func (s *Server) Submit(req *JobRequest) (<-chan jobOutcome, *jobError) {
	sub, jerr := s.SubmitEx(req)
	if jerr != nil {
		return nil, jerr
	}
	return sub.Res, nil
}

// SubmitEx is Submit with the submission's identity attached. The flow:
//
//  1. validate (400s happen before any state is touched);
//  2. consult the index: a completed id answers from its record (journaled
//     payloads survive restarts), an in-flight id coalesces, a cancelled id
//     re-runs;
//  3. backpressure: brownout (trace-enabled jobs shed first under queue
//     latency), drain (503), queue full (429 with a measured Retry-After);
//  4. with journaling on, fsync the acceptance record — only then is the
//     job visible to workers and its acceptance acknowledged.
func (s *Server) SubmitEx(req *JobRequest) (*Submission, *jobError) {
	t0 := time.Now() // epoch of the job's host-side timeline
	if jerr := req.validateVersion(); jerr != nil {
		s.reject("invalid")
		return nil, jerr
	}
	name, src, jerr := resolve(req)
	if jerr != nil {
		s.reject("invalid")
		return nil, jerr
	}
	if _, jerr := req.cachePolicy(); jerr != nil {
		s.reject("invalid")
		return nil, jerr
	}
	if _, _, jerr := runSpec(req); jerr != nil {
		s.reject("invalid")
		return nil, jerr
	}
	jid, jerr := dedupKey(req, s.jr != nil, s.nextID.Add(1))
	if jerr != nil {
		s.reject("invalid")
		return nil, jerr
	}

	s.jmu.Lock()
	if st := s.jobs[jid]; st != nil {
		switch st.status {
		case StatusDone:
			out := st.servedOutcome(jid)
			s.jmu.Unlock()
			ch := make(chan jobOutcome, 1)
			ch <- out
			s.reg.Counter("earthd_jobs_deduped_total", "Re-submissions answered from a completed job's record without running.").Inc()
			return &Submission{JobID: jid, Res: ch, Served: true}, nil
		case StatusQueued, StatusRunning:
			ch := make(chan jobOutcome, 1)
			st.followers = append(st.followers, ch)
			s.jmu.Unlock()
			s.reg.Counter("earthd_jobs_coalesced_total", "Submissions coalesced onto an identical in-flight job.").Inc()
			return &Submission{JobID: jid, Res: ch}, nil
		case StatusCancelled:
			// An explicit re-submission of a cancelled job runs fresh: the
			// cancellation closed that attempt, not the id.
			delete(s.jobs, jid)
		}
	}
	s.jmu.Unlock()

	if s.cfg.BrownoutAfter > 0 && req.TraceSummary && len(s.queue) > 0 &&
		time.Duration(s.waitEwmaNs.Load()) > s.cfg.BrownoutAfter {
		s.reject("brownout")
		return nil, errf(429, "brownout: queue wait %s exceeds %s; trace-enabled jobs are shed first — retry later or drop trace_summary",
			time.Duration(s.waitEwmaNs.Load()).Round(time.Millisecond), s.cfg.BrownoutAfter)
	}

	j := s.newJob(req, jid, name, src, t0)
	// The accept span starts at the timeline epoch: it covers the
	// validation that ran before the trace object existed.
	accIx := j.tr.StartAt(-1, obs.KindAccept, 0)
	// Attach to the compile flight before enqueueing so a worker can never
	// dequeue the job ahead of its flight registration.
	aIx := j.tr.Start(accIx, obs.KindBatchAttach)
	s.attach(j.key)
	j.tr.End(aIx)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.release(j.key)
		j.discard()
		s.reject("draining")
		return nil, errf(503, "server is draining")
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.release(j.key)
		j.discard()
		s.reject("queue_full")
		return nil, errf(429, "queue full (%d jobs deep); retry later", s.cfg.QueueDepth)
	}
	if s.jr != nil {
		// The durability point: the acceptance record is on disk before the
		// client hears 200/202. A journal that cannot write cannot promise,
		// so the job is refused rather than accepted volatile.
		jIx := j.tr.Start(accIx, obs.KindJournalAppend)
		b, err := json.Marshal(req)
		if err == nil {
			err = s.jr.Accepted(jid, b)
		}
		j.tr.End(jIx)
		if err != nil {
			s.mu.Unlock()
			s.release(j.key)
			j.discard()
			s.reject("journal")
			return nil, errf(503, "journal write failed: %v", err)
		}
		s.journalRecord(journal.KindAccepted)
	}
	// Register the index entry before the job becomes visible to a worker.
	s.jmu.Lock()
	s.jobs[jid] = &jobState{jid: jid, status: StatusQueued, cancel: j.cancel}
	s.jmu.Unlock()
	// The job is now accepted: close the accept stage, open queue.wait, and
	// make the timeline visible to GET /jobs/{id}/timeline. Rejected paths
	// above never Track, so their traces simply drop.
	j.tr.End(accIx)
	j.qIx = j.tr.Start(-1, obs.KindQueueWait)
	s.obs.Track(j.tr)
	// Space was checked above and every non-replay sender holds s.mu, so
	// this send can block only momentarily behind the restart replayer.
	s.queue <- j
	s.mu.Unlock()
	s.accepted.Add(1)
	s.reg.Counter("earthd_jobs_accepted_total", "Jobs accepted into the queue.").Inc()
	if s.logDebug {
		s.log.Debug("job accepted", "job", jid, "name", name, "queue_len", len(s.queue))
	}
	return &Submission{JobID: jid, Res: j.res, Owner: true}, nil
}

func (s *Server) reject(reason string) {
	s.reg.Counter(fmt.Sprintf("earthd_jobs_rejected_total{reason=%q}", reason),
		"Jobs rejected before entering the queue.").Inc()
}

// Drain stops intake and waits (bounded by ctx) for the workers to finish
// every accepted job — including journaled jobs still being replayed after
// a restart. Idempotent; concurrent calls all wait. On a complete drain the
// journal is synced and closed.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		// The replayer's jobs are journaled acceptances from the previous
		// process — as binding as any 202 this process issued — so they must
		// all be queued before the queue can close.
		s.replayWg.Wait()
		s.mu.Lock()
		// Closing the queue still delivers every buffered job to the
		// workers; they exit when it is empty.
		close(s.queue)
		s.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.jr != nil {
			if err := s.jr.Close(); err != nil {
				return fmt.Errorf("drain: journal close: %w", err)
			}
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %w (%d of %d accepted jobs completed)",
			ctx.Err(), s.completed.Load(), s.accepted.Load())
	}
}

// Draining reports whether intake has stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// worker drains the shared queue into one shard until drain closes it.
// Jobs whose context fired while they were still queued (DELETE before a
// worker reached them, or a wall deadline consumed by queue wait) resolve
// without executing.
func (s *Server) worker(sh *shard) {
	defer s.wg.Done()
	for j := range s.queue {
		var out jobOutcome
		var svcNs int64
		j.tr.End(j.qIx)
		if j.ctx.Err() != nil {
			out = cancelOutcome(j)
		} else {
			s.setRunning(j.jid)
			t0 := time.Now()
			out = s.execute(sh, j)
			svcNs = time.Since(t0).Nanoseconds()
		}
		s.release(j.key)
		s.finish(sh, j, out, svcNs)
	}
}

// compileKey keys the single-flight table: only compile-relevant inputs
// participate, so jobs that differ in run configuration still share a
// compile. The cache policy participates so a "bypass" probe never
// piggybacks on (or feeds) a cached flight.
func compileKey(hash string, optimize bool, policy string) string {
	return fmt.Sprintf("%s|opt=%t|cache=%s", hash, optimize, policy)
}

// compileKeyFor derives a request's single-flight key from its resolved
// source.
func compileKeyFor(req *JobRequest, src string) string {
	return compileKey(profile.HashSource(src), req.optimize(), req.Cache)
}

// attach joins (creating if needed) the compile flight for key.
func (s *Server) attach(key string) {
	s.fmu.Lock()
	f := s.flights[key]
	if f == nil {
		f = &flight{done: make(chan struct{})}
		s.flights[key] = f
	}
	f.refs++
	s.fmu.Unlock()
}

// release detaches one job from its flight, disposing the entry when the
// last attached job is done with the unit. The flight table is single-flight
// only; once no attached job remains, the next identical submission goes
// back through the shared content-hashed cache (a unit hit, not a compile).
func (s *Server) release(key string) {
	s.fmu.Lock()
	if f := s.flights[key]; f != nil {
		f.refs--
		if f.refs <= 0 {
			delete(s.flights, key)
		}
	}
	s.fmu.Unlock()
}

// compileShared resolves j's compile: the first worker to reach any job
// attached to the flight performs it, and every other attached job waits
// and shares the unit. batched reports whether this job shared another
// job's compile; hit reports a unit-cache hit (meaningful only when
// !batched). Compilation is deterministic, so the shared unit is
// byte-identical to what a private compile would have produced.
func (s *Server) compileShared(sh *shard, j *job) (u *core.Unit, batched, hit bool, err error) {
	s.fmu.Lock()
	f := s.flights[j.key]
	if f == nil {
		// Unreachable by construction (Submit attaches before enqueue, and
		// the job itself still holds a ref), but fail soft rather than
		// deadlock if the invariant is ever broken.
		f = &flight{refs: 1, done: make(chan struct{})}
		s.flights[j.key] = f
	}
	if f.started {
		s.fmu.Unlock()
		s.reg.Counter("earthd_batch_shared_total", "Jobs whose compile was shared with a concurrent identical submission.").Inc()
		<-f.done
		return f.unit, true, false, f.err
	}
	f.started = true
	s.fmu.Unlock()

	p := core.NewPipeline(core.Options{
		Optimize: j.req.optimize(),
		Workers:  s.cfg.Workers,
		Metrics:  sh.reg,
		Cache:    s.cache,
		// With tracing on, keep the per-phase stats on the unit so the
		// job's compile span gets phase children.
		Stats: s.obs.Enabled(),
	})
	policy, jerr := j.req.cachePolicy()
	if jerr != nil {
		// Unreachable: Submit validated the policy before accepting the job.
		f.err = jerr
		close(f.done)
		return nil, false, false, f.err
	}
	res, err := p.Do(core.CompileRequest{Name: j.name, Source: j.src, Cache: policy})
	if err == nil {
		f.unit = res.Unit
		f.hit = res.Hit
		if !res.Hit {
			// Only cache misses perform work; batched duplicates and repeat
			// submissions served from the unit cache don't compile at all.
			s.reg.Counter("earthd_compiles_total", "Distinct compiles performed (batched duplicates and cache hits excluded).").Inc()
		}
	}
	f.err = err
	close(f.done)
	return f.unit, false, f.hit, f.err
}

// execute runs one job on sh. Compile errors and run failures (traps,
// deadlocks, exhausted limits) map to 422: the request was well-formed but
// the program is not executable as submitted.
func (s *Server) execute(sh *shard, j *job) jobOutcome {
	queueNs := time.Since(j.enq).Nanoseconds()
	s.reg.Histogram("earthd_queue_wait_ns", "Host time jobs spent queued.").Observe(queueNs)
	ewmaUpdate(&s.waitEwmaNs, queueNs)

	req := j.req
	machine, faults, jerr := runSpec(req) // re-parse; validated at submit
	if jerr != nil {
		return jobOutcome{err: jerr}
	}
	nodes := req.Nodes
	if nodes <= 0 {
		nodes = s.cfg.DefaultNodes
	}
	fuel := req.Fuel
	if s.cfg.MaxFuel > 0 && (fuel <= 0 || fuel > s.cfg.MaxFuel) {
		fuel = s.cfg.MaxFuel
	}

	cIx := j.tr.Start(-1, obs.KindCompile)
	t0 := time.Now()
	u, batched, hit, err := s.compileShared(sh, j)
	compileNs := time.Since(t0).Nanoseconds()
	j.tr.End(cIx)
	if err != nil {
		return jobOutcome{err: errf(422, "compile: %v", err)}
	}
	s.compileChildren(j.tr, cIx, batched, hit, u)

	// Traced jobs get a pipeline carrying the shard's recorder; the worker
	// is sequential, so Reset-per-job reuse is safe while scrapes read the
	// recorder through its own lock.
	runOpts := core.Options{Workers: s.cfg.Workers, Metrics: sh.reg}
	if req.TraceSummary {
		sh.rec.Reset()
		runOpts.Trace = sh.rec
	}
	sh.sampler.Reset()
	rp := core.NewPipeline(runOpts)
	rIx := j.tr.Start(-1, obs.KindSimRun)
	t0 = time.Now()
	res, err := rp.Run(u, core.RunConfig{
		Nodes:      nodes,
		Sequential: req.Sequential,
		Machine:    machine,
		SimWorkers: s.cfg.SimWorkers,
		Fuel:       fuel,
		Faults:     faults,
		Sampler:    sh.sampler,
		// The job's own context only — never the shared compile flight's:
		// a batched compile must not die with the first client that loses
		// interest, but this run serves exactly this job.
		Context: j.ctx,
	})
	runNs := time.Since(t0).Nanoseconds()
	j.tr.End(rIx)
	if err != nil {
		if errors.Is(err, earthsim.ErrCanceled) {
			return cancelOutcome(j)
		}
		return jobOutcome{err: errf(422, "run: %v", err)}
	}

	r := &JobResult{
		ID:         j.id,
		JobID:      j.jid,
		Name:       j.name,
		Benchmark:  req.Benchmark,
		SourceHash: u.SourceHash,
		Shard:      sh.id,
		Batched:    batched,
		Nodes:      nodes,
		Optimized:  req.optimize(),
		TimeNs:     res.Time,
		Output:     res.Output,
		MainRet:    res.MainRet,
		Counts:     res.Counts,
		Faults:     res.Faults,
		Warnings:   u.Warnings,
		QueueNs:    queueNs,
		CompileNs:  compileNs,
		RunNs:      runNs,
	}
	if req.TraceSummary {
		sum := sh.rec.Summarize()
		r.TraceSummary = sum.String()
		brief := sum.Brief()
		r.Trace = &brief
	}
	return jobOutcome{result: r}
}

// MergedRegistry folds the service registry, every shard registry, and the
// latest process-metrics snapshot into one point-in-time registry — the
// body of a /metrics scrape.
func (s *Server) MergedRegistry() *Registry {
	s.reg.Gauge("earthd_queue_depth", "Jobs currently queued.").Set(int64(len(s.queue)))
	if s.jr != nil {
		st := s.jr.Stats()
		s.reg.Gauge("earthd_journal_lag", "Journal records appended but not yet fsynced.").Set(int64(st.Lag))
		s.reg.Gauge("earthd_journal_segments", "Live journal segment files.").Set(int64(st.Segments))
		s.reg.Gauge("earthd_journal_pending_jobs", "Journaled jobs with no outcome record yet.").Set(int64(st.PendingJobs))
		s.reg.Gauge("earthd_journal_compactions", "Journal snapshot compactions since open.").Set(st.Compactions)
		s.reg.Gauge("earthd_journal_corrupt_records", "Journal records dropped by checksum validation on open.").Set(st.CorruptRecords)
	}
	s.proc.Collect()
	regs := make([]*metrics.Registry, 0, len(s.shards)+2)
	regs = append(regs, s.reg, s.proc.Registry())
	for _, sh := range s.shards {
		regs = append(regs, sh.reg)
	}
	return metrics.Merge(regs...)
}

// Registry aliases metrics.Registry for the package's public surface.
type Registry = metrics.Registry
