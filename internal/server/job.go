package server

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/obs"
	"repro/internal/olden"
	"repro/internal/trace"
)

// JobRequest is one compile-and-simulate job as submitted over HTTP/JSON:
// an EARTH-C program (inline source or a named Olden benchmark) crossed
// with a machine, cost-model, fault, and limit configuration.
type JobRequest struct {
	// V is the job schema version. 0 (absent) and 1 are accepted today and
	// mean the same thing; anything newer is rejected with 400 so an old
	// server never silently misreads a newer client's job. Unknown fields
	// are likewise rejected at the HTTP layer (SchemaVersion).
	V int `json:"v,omitempty"`
	// ID is an optional client-supplied idempotency key. With journaling
	// enabled, re-submitting a completed job's ID is answered from its
	// journaled completion record without re-running; without an ID the
	// journal keys the job by the content hash of the request itself. IDs
	// are printable non-space ASCII, at most 200 bytes.
	ID string `json:"id,omitempty"`
	// Async makes submission return 202 + the job id immediately instead of
	// blocking for the result; poll GET /jobs/{id} (or re-submit the same
	// id) to collect it. Aborts go to DELETE /jobs/{id}.
	Async bool `json:"async,omitempty"`
	// Name labels the unit in results and diagnostics (default "job.ec", or
	// "<benchmark>.ec" for benchmark jobs).
	Name string `json:"name,omitempty"`
	// Source is inline EARTH-C source text. Exactly one of Source and
	// Benchmark must be set.
	Source string `json:"source,omitempty"`
	// Benchmark names an internal/olden program ("power", "tsp", "health",
	// "perimeter", "voronoi"); the service expands it server-side so batching
	// by source hash applies across clients.
	Benchmark string `json:"benchmark,omitempty"`
	// Size and Iters override the benchmark's problem-size parameters
	// (0 = the benchmark's default).
	Size  int `json:"size,omitempty"`
	Iters int `json:"iters,omitempty"`
	// Quick selects the scaled-down quick parameters (olden.QuickParams)
	// instead of the benchmark defaults; Size/Iters still override.
	Quick bool `json:"quick,omitempty"`
	// Nodes is the simulated machine size (default: the server's).
	Nodes int `json:"nodes,omitempty"`
	// Optimize runs the paper's communication optimization (default true;
	// set to false explicitly for an unoptimized build).
	Optimize *bool `json:"optimize,omitempty"`
	// Sequential selects the truly-sequential baseline (1 node only).
	Sequential bool `json:"sequential,omitempty"`
	// Cost overrides simulator cost parameters, e.g.
	// "NetLatency=2500,SUService=800" (earthsim.ParseOverrides syntax).
	Cost string `json:"cost,omitempty"`
	// Faults injects deterministic transport faults, e.g.
	// "drop=0.01,dup=0.005,delay=3" (earthsim.ParseFaultSpec syntax).
	Faults string `json:"faults,omitempty"`
	// FaultSeed seeds the fault PRNG (default 1) — same seed + spec
	// reproduces the run exactly.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Fuel bounds simulated EU instructions (0 = the server's default cap).
	Fuel int64 `json:"fuel,omitempty"`
	// TraceSummary attaches a per-job trace recorder and returns the text
	// summary plus a compact digest (trace.Brief) with the result.
	TraceSummary bool `json:"trace_summary,omitempty"`
	// Cache is the per-job compile cache policy: "" (use the server's
	// cache), "bypass" (cold compile, leave no trace in the cache), or
	// "no-store" (read-only probe).
	Cache string `json:"cache,omitempty"`
}

// SchemaVersion is the newest job schema this server speaks.
const SchemaVersion = 1

// cachePolicy maps the request's Cache field to the core policy.
func (r *JobRequest) cachePolicy() (core.CachePolicy, *jobError) {
	switch r.Cache {
	case "":
		return core.CachePolicy{}, nil
	case "bypass":
		return core.CachePolicy{Bypass: true}, nil
	case "no-store":
		return core.CachePolicy{NoStore: true}, nil
	default:
		return core.CachePolicy{}, errf(400, "cache: unknown policy %q (want bypass or no-store)", r.Cache)
	}
}

// validateVersion rejects jobs from a newer schema generation.
func (r *JobRequest) validateVersion() *jobError {
	if r.V < 0 || r.V > SchemaVersion {
		return errf(400, "v: unsupported job schema version %d (this server speaks <= %d)", r.V, SchemaVersion)
	}
	return nil
}

// JobResult is the service's response for one completed job. Everything
// except the submission bookkeeping (ID, Shard, Batched) and the host-side
// latency fields (QueueNs, CompileNs, RunNs) is a deterministic function of
// the request: identical requests produce byte-identical payloads, which is
// what lets the service share one compile across concurrent duplicates.
type JobResult struct {
	ID uint64 `json:"id"`
	// JobID is the submission's idempotency key (client-supplied or derived
	// from the request's content hash) — the handle for GET/DELETE
	// /jobs/{id} and exactly-once re-submission.
	JobID string `json:"job_id,omitempty"`
	// Replayed reports that this payload was served from a completed job's
	// record (journal or in-memory index) rather than a fresh run.
	Replayed   bool   `json:"replayed,omitempty"`
	Name       string `json:"name"`
	Benchmark  string `json:"benchmark,omitempty"`
	SourceHash string `json:"source_hash"`
	// Shard is the pipeline shard that executed the job.
	Shard int `json:"shard"`
	// Batched reports that this job's compile was shared with a concurrent
	// identical submission (single-flight batching by source hash).
	Batched   bool                 `json:"batched"`
	Nodes     int                  `json:"nodes"`
	Optimized bool                 `json:"optimized"`
	TimeNs    int64                `json:"time_ns"` // simulated time
	Output    string               `json:"output"`
	MainRet   int64                `json:"main_ret"`
	Counts    earthsim.Counts      `json:"counts"`
	Faults    *earthsim.FaultStats `json:"faults,omitempty"`
	Warnings  []string             `json:"warnings,omitempty"`
	// Host-side latency breakdown (wall clock, non-deterministic).
	QueueNs   int64 `json:"queue_ns"`
	CompileNs int64 `json:"compile_ns"`
	RunNs     int64 `json:"run_ns"`
	// TraceSummary/Trace are present when the request asked for them.
	TraceSummary string       `json:"trace_summary,omitempty"`
	Trace        *trace.Brief `json:"trace,omitempty"`
}

// CanonicalPayload renders the deterministic portion of the result: the
// submission bookkeeping (ID, JobID, Shard, Batched, Replayed) and host-side
// latency fields are zeroed, so identical requests — batched, cached,
// replayed from the journal, or run cold on different servers — compare
// byte-identical. The chaos harness and the batching tests are stated over
// these bytes.
func (r *JobResult) CanonicalPayload() ([]byte, error) {
	c := *r
	c.ID, c.JobID, c.Shard = 0, "", 0
	c.Batched, c.Replayed = false, false
	c.QueueNs, c.CompileNs, c.RunNs = 0, 0, 0
	return json.Marshal(&c)
}

// jobError is a job-level failure with the HTTP status it maps to.
type jobError struct {
	status int
	msg    string
}

func (e *jobError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *jobError {
	return &jobError{status: status, msg: fmt.Sprintf(format, args...)}
}

// job is one queued unit of work: the validated request plus its resolved
// source and the channel its worker reports on.
type job struct {
	id   uint64
	jid  string // submission id (idempotency key); see dedupKey
	req  *JobRequest
	name string
	src  string
	key  string // single-flight compile key (source hash + compile options)
	enq  time.Time
	// ctx carries the job's cancellation signal (DELETE, client disconnect,
	// wall deadline) into the simulator; cancel fires it with a cause and
	// stopTimer releases the wall-deadline timer.
	ctx       context.Context
	cancel    context.CancelCauseFunc
	stopTimer context.CancelFunc
	// replayed marks a job rebuilt from the journal on restart: it is
	// already durably accepted, so Submit-side journaling is skipped.
	replayed bool
	// tr is the job's host-side span timeline (nil when tracing is off);
	// qIx is its queue.wait span, opened at enqueue and closed by the
	// worker that dequeues the job.
	tr  *obs.JobTrace
	qIx int
	// res receives exactly one outcome; buffered so a worker never blocks on
	// a departed client.
	res chan jobOutcome
}

// discard releases the job's context resources (the cancel cause and the
// wall-deadline timer). Safe to call more than once.
func (j *job) discard() {
	j.cancel(nil)
	j.stopTimer()
}

type jobOutcome struct {
	result *JobResult
	err    *jobError
}

// resolve validates req and fills in the job's source text and unit name.
// Validation failures map to 400; they are detected before the job is
// accepted into the queue.
func resolve(req *JobRequest) (name, src string, err *jobError) {
	switch {
	case req.Source != "" && req.Benchmark != "":
		return "", "", errf(400, "set exactly one of source and benchmark, not both")
	case req.Source != "":
		name = req.Name
		if name == "" {
			name = "job.ec"
		}
		return name, req.Source, nil
	case req.Benchmark != "":
		b := olden.ByName(req.Benchmark)
		if b == nil {
			return "", "", errf(400, "unknown benchmark %q", req.Benchmark)
		}
		p := b.DefaultParams
		if req.Quick {
			p = olden.QuickParams(b)
		}
		if req.Size > 0 {
			p.Size = req.Size
		}
		if req.Iters > 0 {
			p.Iters = req.Iters
		}
		name = req.Name
		if name == "" {
			name = b.Name + ".ec"
		}
		return name, b.Source(p), nil
	default:
		return "", "", errf(400, "set exactly one of source and benchmark")
	}
}

// runSpec parses the request's run-time configuration. Spec syntax errors
// map to 400 like the rest of validation.
func runSpec(req *JobRequest) (*earthsim.Config, *earthsim.FaultConfig, *jobError) {
	machine, err := earthsim.ParseOverrides(req.Cost)
	if err != nil {
		return nil, nil, errf(400, "cost: %v", err)
	}
	faults, err := earthsim.ParseFaultSpec(req.Faults)
	if err != nil {
		return nil, nil, errf(400, "faults: %v", err)
	}
	if faults != nil && faults.Seed == 0 {
		faults.Seed = req.FaultSeed
		if faults.Seed == 0 {
			faults.Seed = 1
		}
	}
	return machine, faults, nil
}

// optimize reports the request's effective Optimize flag (default true).
func (r *JobRequest) optimize() bool { return r.Optimize == nil || *r.Optimize }
