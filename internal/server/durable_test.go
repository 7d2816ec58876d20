package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// openServer opens a journaled server, failing the test on error.
func openServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitStatus polls JobStatus until the job reaches want (or times out).
func waitStatus(t *testing.T, s *Server, jid, want string) jobOutcome {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, out, _, ok := s.JobStatus(jid)
		if ok && status == want {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %q never reached %q (last: %q, known=%t)", jid, want, status, ok)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJournalRecoveryServesCompleted: a completed job's payload survives a
// restart and answers a re-submission of its id byte-identically, without
// re-running — the exactly-once half of the durability contract.
func TestJournalRecoveryServesCompleted(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, QueueDepth: 8, JournalDir: dir}

	s1 := openServer(t, cfg)
	req := &JobRequest{ID: "job-a", Source: remoteListSrc, Nodes: 2}
	r1, jerr := submitWait(t, s1, req)
	if jerr != nil {
		t.Fatal(jerr)
	}
	if r1.JobID != "job-a" || r1.Replayed {
		t.Fatalf("fresh run: job_id=%q replayed=%t", r1.JobID, r1.Replayed)
	}
	runs := counterValue(s1, "earthd_jobs_completed_total")
	drainServer(t, s1)

	s2 := openServer(t, cfg)
	defer drainServer(t, s2)
	sub, jerr := s2.SubmitEx(&JobRequest{ID: "job-a", Source: remoteListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}
	if !sub.Served {
		t.Fatal("re-submission after restart was not served from the journal")
	}
	out := <-sub.Res
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.result.Replayed {
		t.Error("served result not marked replayed")
	}
	if a, b := canonical(t, r1), canonical(t, out.result); a != b {
		t.Errorf("replayed payload differs from the original:\n%s\n%s", a, b)
	}
	if got := counterValue(s2, "earthd_jobs_completed_total"); got != 0 {
		t.Errorf("restart re-ran the job (%d completions, want 0; original process ran %d)", got, runs)
	}
	if status, _, terminal, ok := s2.JobStatus("job-a"); !ok || !terminal || status != StatusDone {
		t.Errorf("JobStatus after restart = %q terminal=%t ok=%t", status, terminal, ok)
	}
}

// TestJournalRecoveryContentHashKey: without a client-supplied id, the
// journal keys the job by the request's content hash, so the *same request*
// is deduplicated across a restart.
func TestJournalRecoveryContentHashKey(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, QueueDepth: 8, JournalDir: dir}

	s1 := openServer(t, cfg)
	r1, jerr := submitWait(t, s1, &JobRequest{Source: remoteListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}
	if !strings.HasPrefix(r1.JobID, "sha256:") {
		t.Fatalf("content-hash job id = %q", r1.JobID)
	}
	drainServer(t, s1)

	s2 := openServer(t, cfg)
	defer drainServer(t, s2)
	sub, jerr := s2.SubmitEx(&JobRequest{Source: remoteListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}
	if !sub.Served || sub.JobID != r1.JobID {
		t.Fatalf("identical request after restart: served=%t job_id=%q (want %q)",
			sub.Served, sub.JobID, r1.JobID)
	}
	out := <-sub.Res
	if out.err != nil || !out.result.Replayed {
		t.Fatalf("outcome = %+v", out)
	}
}

// TestJournalRecoveryReplaysPending: an accepted-but-unfinished job in the
// journal (a crash between the 202 and completion) re-enters the queue on
// open and runs to completion — the no-lost-jobs half of the contract.
func TestJournalRecoveryReplaysPending(t *testing.T) {
	dir := t.TempDir()
	b, err := json.Marshal(&JobRequest{Source: remoteListSrc, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	jr, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Accepted("pend-1", b); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	s := openServer(t, Config{Shards: 1, QueueDepth: 8, JournalDir: dir})
	out := waitStatus(t, s, "pend-1", StatusDone)
	if out.err != nil {
		t.Fatalf("replayed job failed: %v", out.err)
	}
	if out.result == nil || !out.result.Replayed {
		t.Fatalf("replayed outcome = %+v", out)
	}
	if got := counterValue(s, "earthd_jobs_replayed_total"); got != 1 {
		t.Errorf("earthd_jobs_replayed_total = %d, want 1", got)
	}
	drainServer(t, s)

	// After the drain the completion is durable: a third process serves it.
	s2 := openServer(t, Config{Shards: 1, QueueDepth: 8, JournalDir: dir})
	defer drainServer(t, s2)
	if status, _, _, ok := s2.JobStatus("pend-1"); !ok || status != StatusDone {
		t.Errorf("third open: status=%q ok=%t", status, ok)
	}
}

// TestJournalRecoveryUnreplayable: a journaled acceptance that no longer
// validates is closed out as cancelled instead of wedging recovery.
func TestJournalRecoveryUnreplayable(t *testing.T) {
	dir := t.TempDir()
	jr, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Accepted("bad-1", []byte(`{"benchmark":"no-such-benchmark"}`)); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{Shards: 1, QueueDepth: 8, JournalDir: dir})
	drainServer(t, s)
	_, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 0 {
		t.Errorf("unreplayable job still pending: %+v", rec.Pending)
	}
	if _, ok := rec.Cancelled["bad-1"]; !ok {
		t.Error("unreplayable job not recorded as cancelled")
	}
}

// TestCancelQueuedJob: cancelling a job the workers have not reached yet
// resolves it with 499 without executing anything.
func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4})
	defer drainServer(t, s)

	busy, jerr := s.Submit(&JobRequest{Source: slowListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the busy job")
		}
		time.Sleep(time.Millisecond)
	}
	sub, jerr := s.SubmitEx(&JobRequest{ID: "victim", Source: remoteListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}
	if jerr := s.Cancel("victim", "test abort"); jerr != nil {
		t.Fatal(jerr)
	}
	out := <-sub.Res
	if out.err == nil || out.err.status != 499 {
		t.Fatalf("cancelled outcome = %+v, want 499", out)
	}
	if !strings.Contains(out.err.msg, "test abort") {
		t.Errorf("cancellation reason lost: %q", out.err.msg)
	}
	if status, _, _, ok := s.JobStatus("victim"); !ok || status != StatusCancelled {
		t.Errorf("status = %q ok=%t, want cancelled", status, ok)
	}
	// Cancelling a finished job is a conflict, not a repeat cancellation.
	if jerr := s.Cancel("victim", "again"); jerr == nil || jerr.status != 409 {
		t.Errorf("second cancel = %+v, want 409", jerr)
	}
	<-busy
}

// TestCancelRunningJobHTTP drives the full async lifecycle over HTTP:
// 202 on submit, "running" from GET, 202 from DELETE, "cancelled" with a
// 499 code once the simulator traps at its next cancellation poll.
func TestCancelRunningJobHTTP(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4})
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/jobs", &JobRequest{ID: "run-1", Source: slowListSrc, Nodes: 2, Async: true})
	if resp.StatusCode != 202 {
		t.Fatalf("async submit = %d, want 202", resp.StatusCode)
	}
	var acc struct {
		JobID  string `json:"job_id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if acc.JobID != "run-1" || acc.Status != StatusQueued {
		t.Fatalf("accept body = %+v", acc)
	}

	type statusResp struct {
		JobID  string     `json:"job_id"`
		Status string     `json:"status"`
		Code   int        `json:"code"`
		Error  string     `json:"error"`
		Result *JobResult `json:"result"`
	}
	getStatus := func() statusResp {
		t.Helper()
		resp, err := http.Get(ts.URL + "/jobs/run-1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET /jobs/run-1 = %d", resp.StatusCode)
		}
		var sr statusResp
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	deadline := time.Now().Add(30 * time.Second)
	for getStatus().Status != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}

	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/run-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 202 {
		t.Fatalf("DELETE = %d, want 202", dresp.StatusCode)
	}

	for {
		sr := getStatus()
		if sr.Status == StatusCancelled {
			if sr.Code != 499 || sr.Error == "" {
				t.Fatalf("cancelled status = %+v, want code 499", sr)
			}
			break
		}
		if sr.Status == StatusDone {
			t.Fatal("job finished before the cancellation landed; make slowListSrc slower")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached cancelled")
		}
		time.Sleep(time.Millisecond)
	}

	// Unknown and finished ids map to 404 and 409.
	del, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/nope", nil)
	if dresp, err = http.DefaultClient.Do(del); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 404 {
		t.Errorf("DELETE unknown = %d, want 404", dresp.StatusCode)
	}
	del, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/run-1", nil)
	if dresp, err = http.DefaultClient.Do(del); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 409 {
		t.Errorf("DELETE finished = %d, want 409", dresp.StatusCode)
	}
}

// TestJobWallDeadline: a job that exceeds the server's wall-clock budget
// (JobDeadline, acceptance to completion) is aborted cooperatively and
// answers 504.
func TestJobWallDeadline(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4, JobDeadline: 20 * time.Millisecond})
	defer drainServer(t, s)
	res, jerr := s.Submit(&JobRequest{Source: slowListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}
	out := <-res
	if out.err == nil || out.err.status != 504 {
		t.Fatalf("outcome = %+v, want 504", out)
	}
}

// TestCancelledJournaledAndRerunnable: a cancelled job's record lands in the
// journal, and explicitly re-submitting the same id runs fresh — the
// cancellation closed that attempt, not the id.
func TestCancelledJournaledAndRerunnable(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, QueueDepth: 8, JournalDir: dir, JobDeadline: 20 * time.Millisecond}
	s := openServer(t, cfg)
	res, jerr := s.Submit(&JobRequest{ID: "flaky", Source: slowListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}
	if out := <-res; out.err == nil || out.err.status != 504 {
		t.Fatalf("outcome = %+v, want 504", out)
	}
	drainServer(t, s)

	// Restart without the tight deadline: the id is free to run again.
	s2 := openServer(t, Config{Shards: 1, QueueDepth: 8, JournalDir: dir})
	defer drainServer(t, s2)
	r, jerr := submitWait(t, s2, &JobRequest{ID: "flaky", Source: remoteListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatalf("re-run after cancellation: %v", jerr)
	}
	if r.Replayed {
		t.Error("re-run was served from the cancelled record")
	}
}

// TestBrownoutShedsTraceJobs: once measured queue wait exceeds
// BrownoutAfter, trace-enabled jobs are shed with 429 while plain jobs are
// still accepted.
func TestBrownoutShedsTraceJobs(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 8, BrownoutAfter: time.Nanosecond})
	defer drainServer(t, s)

	// Seed the queue-wait EWMA (any executed job has nonzero wait).
	if _, jerr := submitWait(t, s, &JobRequest{Source: remoteListSrc, Nodes: 2}); jerr != nil {
		t.Fatal(jerr)
	}
	// Occupy the worker and one queue slot so the queue is non-empty.
	busy, jerr := s.Submit(&JobRequest{Source: slowListSrc, Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the busy job")
		}
		time.Sleep(time.Millisecond)
	}
	queued, jerr := s.Submit(&JobRequest{Source: slowListSrc + "\n", Nodes: 2})
	if jerr != nil {
		t.Fatal(jerr)
	}

	_, jerr = s.Submit(&JobRequest{Source: remoteListSrc, Nodes: 2, TraceSummary: true})
	if jerr == nil || jerr.status != 429 || !strings.Contains(jerr.msg, "brownout") {
		t.Fatalf("trace job under brownout = %+v, want 429 brownout", jerr)
	}
	plain, jerr := s.Submit(&JobRequest{Source: remoteListSrc + "\n", Nodes: 2})
	if jerr != nil {
		t.Fatalf("plain job under brownout rejected: %v", jerr)
	}
	if got := counterValue(s, `earthd_jobs_rejected_total{reason="brownout"}`); got != 1 {
		t.Errorf("brownout rejection counter = %d, want 1", got)
	}
	<-busy
	<-queued
	<-plain
}

// TestRetryAfterMeasured: the Retry-After hint tracks the measured drain
// rate — queue depth × service-time EWMA over the shard count, clamped to
// [1, 60], falling back to the configured constant before any measurement.
func TestRetryAfterMeasured(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 8, RetryAfter: 3 * time.Second})
	defer drainServer(t, s)

	if got := s.retryAfterSecs(); got != 3 {
		t.Errorf("empty EWMA: Retry-After = %d, want configured 3", got)
	}
	s.svcEwmaNs.Store(int64(1500 * time.Millisecond)) // 1.5s/job, empty queue
	if got := s.retryAfterSecs(); got != 2 {
		t.Errorf("1.5s EWMA: Retry-After = %d, want ceil to 2", got)
	}
	s.svcEwmaNs.Store(int64(200 * time.Second))
	if got := s.retryAfterSecs(); got != 60 {
		t.Errorf("huge EWMA: Retry-After = %d, want clamp 60", got)
	}
}

// TestAsyncServedAfterCompletion: re-submitting a completed id with
// async=true answers the stored result immediately (200, replayed) instead
// of a useless 202.
func TestAsyncServedAfterCompletion(t *testing.T) {
	dir := t.TempDir()
	s := openServer(t, Config{Shards: 1, QueueDepth: 8, JournalDir: dir})
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := &JobRequest{ID: "async-1", Source: remoteListSrc, Nodes: 2}
	if _, jerr := submitWait(t, s, req); jerr != nil {
		t.Fatal(jerr)
	}
	resp := postJSON(t, ts.URL+"/jobs", &JobRequest{ID: "async-1", Source: remoteListSrc, Nodes: 2, Async: true})
	r := decodeResult(t, resp)
	if !r.Replayed || r.JobID != "async-1" {
		t.Errorf("served async result = %+v", r)
	}
}

// TestHealthzJournal: with journaling on, /healthz carries the journal
// section (lag, segments, pending) used by operators and the chaos harness.
func TestHealthzJournal(t *testing.T) {
	dir := t.TempDir()
	s := openServer(t, Config{Shards: 1, QueueDepth: 8, JournalDir: dir})
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, jerr := submitWait(t, s, &JobRequest{ID: "h-1", Source: remoteListSrc, Nodes: 2}); jerr != nil {
		t.Fatal(jerr)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status  string `json:"status"`
		Journal *struct {
			Lag         int `json:"lag"`
			Segments    int `json:"segments"`
			PendingJobs int `json:"pending_jobs"`
		} `json:"journal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Journal == nil {
		t.Fatal("healthz missing journal section")
	}
	if h.Journal.Segments < 1 || h.Journal.PendingJobs != 0 {
		t.Errorf("journal health = %+v", *h.Journal)
	}
}

// TestHealthzDraining503: a draining server fails its health check so load
// balancers stop routing to it, while the body still reports progress.
func TestHealthzDraining503(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	drainServer(t, s)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("status = %q", h.Status)
	}
}

// TestBadClientID: malformed idempotency keys are a 400 before any state is
// touched.
func TestBadClientID(t *testing.T) {
	s := New(Config{Shards: 1, QueueDepth: 4})
	defer drainServer(t, s)
	for _, id := range []string{strings.Repeat("x", 201), "has space", "ctrl\x01char"} {
		_, jerr := s.Submit(&JobRequest{ID: id, Source: remoteListSrc, Nodes: 2})
		if jerr == nil || jerr.status != 400 {
			t.Errorf("id %q: %+v, want 400", fmt.Sprintf("%.12s…", id), jerr)
		}
	}
}
