package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/earthsim"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// telemetryBytes runs u once on a fresh metered pipeline and returns every
// exposition surface concatenated: registry Prometheus + JSON, sampler
// series JSON + Prometheus.
func telemetryBytes(t *testing.T, u *Unit, rc RunConfig) []byte {
	t.Helper()
	reg := metrics.NewRegistry()
	s := metrics.NewSampler(10_000, 0)
	rc.Sampler = s
	p := NewPipeline(Options{Metrics: reg})
	if _, err := p.Run(u, rc); err != nil {
		t.Fatal(err)
	}
	if s.Total() == 0 {
		t.Fatal("sampler recorded no samples")
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	reg.WriteJSON(&buf)
	s.WriteSeriesJSON(&buf)
	s.WritePrometheus(&buf)
	return buf.Bytes()
}

// TestTelemetryDeterministic: identical unit + RunConfig (same fault seed)
// must fill a fresh registry and sampler with byte-identical expositions —
// the PR 4 determinism invariant extended to telemetry, with faults both
// off and on.
func TestTelemetryDeterministic(t *testing.T) {
	u, err := compile("det.ec", remoteListSrc, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		faults *earthsim.FaultConfig
	}{
		{"no-faults", nil},
		{"faults", &earthsim.FaultConfig{Drop: 0.05, Dup: 0.02, Delay: 2, Stall: 0.05, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := telemetryBytes(t, u, RunConfig{Nodes: 4, Faults: tc.faults})
			b := telemetryBytes(t, u, RunConfig{Nodes: 4, Faults: tc.faults})
			if !bytes.Equal(a, b) {
				t.Errorf("telemetry not byte-identical across runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
			}
			if tc.faults != nil {
				// Pin the fault-layer counter names: downstream dashboards key
				// on these strings, so renames must fail loudly here.
				for _, want := range [][]byte{
					[]byte("earth_fault_retries_total"),
					[]byte("earth_fault_retries_spurious_total"),
					[]byte("earthsim_retries_spurious_total"),
				} {
					if !bytes.Contains(a, want) {
						t.Errorf("faulted run exposition missing %s", want)
					}
				}
			}
		})
	}
}

// slowLoopSrc runs long enough (tens of milliseconds of host time) that the
// debug server can be exercised while the run is in flight. It must
// communicate, not just compute: samples are taken in event-loop order, and
// a pure-compute fiber is a single EU dispatch — the sampler would publish
// nothing until the close-out sample just before Run returns. Walking a
// remote list keeps the event loop (and therefore the sampler) busy for the
// whole run.
const slowLoopSrc = `
struct Point {
	double x;
	double y;
	double z;
	struct Point *next;
};

int main() {
	Point *head;
	Point *p;
	int i;
	int r;
	double sum;
	head = NULL;
	for (i = 0; i < 40; i++) {
		p = alloc_on(Point, 1);
		p->x = dbl(i);
		p->y = dbl(i * 2);
		p->z = dbl(i * 3);
		p->next = head;
		head = p;
	}
	sum = 0.0;
	for (r = 0; r < 1000; r++) {
		p = head;
		while (p != NULL) {
			sum = sum + p->x + p->y + p->z;
			p = p->next;
		}
	}
	print_double(sum);
	return 0;
}
`

// TestDebugServerLiveRun: the debug HTTP endpoints must serve coherent data
// while a simulator Run is in flight.
func TestDebugServerLiveRun(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := trace.NewRecorder(0)
	p := NewPipeline(Options{Metrics: reg, Trace: rec})
	cr, err := p.Do(CompileRequest{Name: "slow.ec", Source: slowLoopSrc})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	srv := httptest.NewServer(p.DebugHandler())
	defer srv.Close()

	s := metrics.NewSampler(10_000, 0)
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(u, RunConfig{Nodes: 2, Sampler: s})
		done <- err
	}()
	// Wait until the run is demonstrably in flight: the sampler has
	// published at least one snapshot.
	deadline := time.Now().Add(10 * time.Second)
	for s.Latest() == nil {
		select {
		case err := <-done:
			// Run publishes the close-out sample before returning, so by the
			// time done fires Latest must be visible; re-feed done (buffered)
			// for the drain after the endpoint checks.
			done <- err
			if s.Latest() == nil {
				t.Fatalf("run finished without publishing a sample (err=%v)", err)
			}
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler never published a snapshot")
		}
		time.Sleep(100 * time.Microsecond)
	}

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, _ := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: status %d", code)
	}
	var h struct {
		Status  string `json:"status"`
		Running bool   `json:"running"`
		Unit    string `json:"unit"`
		Nodes   int    `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz: bad JSON %q: %v", body, err)
	}
	if h.Status != "ok" || h.Unit != "slow.ec" || h.Nodes != 2 {
		t.Errorf("/healthz = %+v", h)
	}

	code, body, ct := get("/metrics")
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics: status %d content-type %q", code, ct)
	}
	for _, want := range []string{"earth_runs_started_total", "earthsim_time_ns", "earthsim_node_eu_busy_ns"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, _ = get("/series.json")
	if code != http.StatusOK {
		t.Fatalf("/series.json: status %d", code)
	}
	var series struct {
		IntervalNs int64             `json:"interval_ns"`
		Samples    []json.RawMessage `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/series.json: bad JSON: %v", err)
	}
	if series.IntervalNs != 10_000 || len(series.Samples) == 0 {
		t.Errorf("/series.json: interval %d, %d samples", series.IntervalNs, len(series.Samples))
	}

	code, body, _ = get("/trace/summary")
	if code != http.StatusOK || !strings.Contains(body, "node") {
		t.Errorf("/trace/summary: status %d body %q", code, body)
	}

	code, body, _ = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: status %d", code)
	}

	code, _, _ = get("/trace.json")
	if code != http.StatusOK {
		t.Errorf("/trace.json: status %d", code)
	}

	if err := <-done; err != nil {
		t.Fatalf("run failed: %v", err)
	}

	// After the run: healthz flips to not-running, metrics.json is valid.
	code, body, _ = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz after run: status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil || h.Status != "ok" {
		t.Errorf("/healthz after run: %q (%v)", body, err)
	}
	var running struct {
		Running bool `json:"running"`
	}
	json.Unmarshal([]byte(body), &running)
	if running.Running {
		t.Error("/healthz still reports running after the run completed")
	}
	code, body, _ = get("/metrics.json")
	if code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Errorf("/metrics.json: status %d body %q", code, body)
	}
}

// TestServeDebug: the convenience wrapper binds a real listener.
func TestServeDebug(t *testing.T) {
	p := NewPipeline(Options{Metrics: metrics.NewRegistry()})
	d, err := p.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", d.Addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz via ServeDebug: status %d", resp.StatusCode)
	}
}
