package earthsim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/olden"
	"repro/internal/trace"
)

// oldenQuick is the fixed benchmark the trace tests run: tsp at a reduced
// size, optimized, on 4 nodes — a real workload with every message class
// except shared in play, yet fast enough for the race-enabled gate.
func oldenQuick() (name, src string) {
	b := olden.ByName("tsp")
	p := b.DefaultParams
	p.Size = 32
	return "tsp.ec", b.Source(p)
}

// TestTracingPreservesResult is the trace subsystem's core contract: the
// Recorder is purely observational, so attaching one must not perturb the
// simulation in any way. A traced run's Result (Time, Counts, Output,
// MainRet, Profile) must be bit-identical to the untraced run's.
func TestTracingPreservesResult(t *testing.T) {
	name, src := oldenQuick()
	plain := core.NewPipeline(core.Options{Optimize: true})
	cr, err := plain.Do(core.CompileRequest{Name: name, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	rc := core.RunConfig{Nodes: 4}
	want, err := plain.Run(u, rc)
	if err != nil {
		t.Fatal(err)
	}

	rec := trace.NewRecorder(4)
	traced := core.NewPipeline(core.Options{Optimize: true, Trace: rec})
	got, err := traced.Run(u, rc)
	if err != nil {
		t.Fatal(err)
	}

	if got.Time != want.Time {
		t.Errorf("tracing changed Time: %d vs %d", got.Time, want.Time)
	}
	if got.Counts != want.Counts {
		t.Errorf("tracing changed Counts:\n traced: %v\nuntraced: %v", got.Counts, want.Counts)
	}
	if got.Output != want.Output {
		t.Errorf("tracing changed Output: %q vs %q", got.Output, want.Output)
	}
	if got.MainRet != want.MainRet {
		t.Errorf("tracing changed MainRet: %d vs %d", got.MainRet, want.MainRet)
	}
	if got.Profile != nil || want.Profile != nil {
		t.Errorf("unprofiled runs should carry no profile (traced %v, untraced %v)",
			got.Profile, want.Profile)
	}

	// And the recording must actually contain the run.
	if len(rec.Msgs()) == 0 || len(rec.Spans()) == 0 {
		t.Fatalf("recorder captured nothing: %d msgs, %d spans",
			len(rec.Msgs()), len(rec.Spans()))
	}
	if rec.Horizon() > want.Time {
		t.Errorf("trace horizon %d ns beyond simulated end %d ns", rec.Horizon(), want.Time)
	}
	sites := 0
	for _, m := range rec.Msgs() {
		if m.Site != "" {
			sites++
		}
	}
	if sites == 0 {
		t.Error("no message carries a site attribution")
	}
}

// traceOnce does a full compile+traced-run cycle from scratch and returns
// the Chrome export bytes.
func traceOnce(t *testing.T) []byte {
	t.Helper()
	name, src := oldenQuick()
	rec := trace.NewRecorder(4)
	p := core.NewPipeline(core.Options{Optimize: true, Trace: rec})
	cr, err := p.Do(core.CompileRequest{Name: name, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	if _, err := p.Run(u, core.RunConfig{Nodes: 4}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChromeTraceGolden: the Chrome export of a fixed benchmark run is
// byte-stable across two independent compile+run cycles (the simulation is
// deterministic and the exporter adds no nondeterminism of its own), and is
// well-formed trace_event JSON.
func TestChromeTraceGolden(t *testing.T) {
	a := traceOnce(t)
	b := traceOnce(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("Chrome trace is not byte-stable across identical runs (%d vs %d bytes)",
			len(a), len(b))
	}

	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want \"ns\"", doc.DisplayTimeUnit)
	}
	// 4 nodes of metadata plus real events.
	if len(doc.TraceEvents) <= 20 {
		t.Errorf("suspiciously empty trace: %d events", len(doc.TraceEvents))
	}
	cats := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if c, ok := ev["cat"].(string); ok {
			cats[c] = true
		}
	}
	for _, want := range []string{"eu", "su", "net", "msg"} {
		if !cats[want] {
			t.Errorf("no %q events in the export", want)
		}
	}
}

// TestTraceSummaryDeterministic: the text summary of two identical traced
// runs is identical.
func TestTraceSummaryDeterministic(t *testing.T) {
	runSummary := func() string {
		name, src := oldenQuick()
		rec := trace.NewRecorder(4)
		p := core.NewPipeline(core.Options{Optimize: true, Trace: rec})
		cr, err := p.Do(core.CompileRequest{Name: name, Source: src})
		if err != nil {
			t.Fatal(err)
		}
		u := cr.Unit
		if _, err := p.Run(u, core.RunConfig{Nodes: 4}); err != nil {
			t.Fatal(err)
		}
		return rec.Summarize().String()
	}
	a, b := runSummary(), runSummary()
	if a != b {
		t.Error("trace summary differs across identical runs")
	}
}

// TestCompileStatsPopulated: a Stats-enabled pipeline attaches per-phase
// timings and selection counters to the unit; a plain pipeline does not.
func TestCompileStatsPopulated(t *testing.T) {
	name, src := oldenQuick()
	p := core.NewPipeline(core.Options{Optimize: true, Stats: true})
	cr, err := p.Do(core.CompileRequest{Name: name, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	u := cr.Unit
	st := u.Stats
	if st == nil {
		t.Fatal("Stats: true produced no CompileStats")
	}
	if len(st.Phases) == 0 || st.TotalNs() <= 0 {
		t.Errorf("no phase timings recorded: %+v", st.Phases)
	}
	seen := map[string]bool{}
	for _, ph := range st.Phases {
		seen[ph.Name] = true
	}
	for _, want := range []string{"parse", "sema", "commsel"} {
		if !seen[want] {
			t.Errorf("phase %q missing from %v", want, st.Phases)
		}
	}
	if st.CandidateReads == 0 || st.PipelinedReads+st.BlockedReads == 0 {
		t.Errorf("selection counters empty: %+v", *st)
	}

	cr, err = core.NewPipeline(core.Options{Optimize: true}).Do(core.CompileRequest{Name: name, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	plain := cr.Unit
	if plain.Stats != nil {
		t.Error("plain pipeline attached CompileStats")
	}
}
