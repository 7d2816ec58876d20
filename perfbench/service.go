package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/earthsim"
	"repro/internal/obs"
	"repro/internal/olden"
	"repro/internal/server"
)

const (
	serviceShards = 2
	serviceNodes  = 4
	// serviceRate is the open-loop arrival rate, about a quarter of the
	// closed-loop capacity this mix measured (90-140 jobs/s) at the commit
	// that introduced the benchmark (2-vCPU Xeon VM, go1.24). At half the
	// capacity, queueing amplified that host's speed swings into 30% and
	// more run-to-run spread of the latency percentiles. It is a constant so
	// a faster or slower server sees the same offered load.
	serviceRate = 25.0 // jobs per second
	// capacityHint sizes the closed-loop phase's job list (1.5x this rate
	// over the phase); a faster server wraps around to the list's start,
	// where every job is a repeat.
	capacityHint = 120.0
	// openShare of a phase's seconds is open loop; the rest measures
	// closed-loop capacity.
	openShare = 0.6
	// serviceFaults is the transport fault spec of the mix's fault jobs.
	serviceFaults = "drop=0.01,dup=0.005,delay=3"
	serviceFuel   = 500_000_000 // earthd's default per-job fuel cap
	// serviceProbes is how many times the reference loop runs before the
	// open loop starts. The open loop runs it once more probeGap before a
	// job is due, if no job is in flight then.
	serviceProbes = 20
	probeGap      = 5 * time.Millisecond
)

// svcKey identifies one distinct service request. faultSeed 0 means no
// faults.
type svcKey struct {
	bench       string
	size, iters int
	faultSeed   uint64
}

func (k svcKey) request(id string, async bool) server.JobRequest {
	req := server.JobRequest{ID: id, Async: async, Benchmark: k.bench, Quick: true,
		Size: k.size, Iters: k.iters, Nodes: serviceNodes}
	if k.faultSeed != 0 {
		req.Faults, req.FaultSeed = serviceFaults, k.faultSeed
	}
	return req
}

// svcJob is one job of the stream and what the mix meant it to exercise.
type svcJob struct {
	key  svcKey
	kind string // "repeat", "new" or "fault"
}

// quickKey is a program's quick-size request.
func quickKey(bm *olden.Benchmark) svcKey {
	p := olden.QuickParams(bm)
	return svcKey{bench: bm.Name, size: p.Size, iters: p.Iters}
}

// sizeCandidates lists a program's other quick sizes, nearest its quick
// size in work first: tsp and voronoi sizes and health iterations within
// 75% of the quick value, power combinations within 50% of its laterals ×
// iterations. Perimeter's depth quadruples the work per step, so it offers
// only the next smaller depth, and its other new-size slots become repeats.
func sizeCandidates(bm *olden.Benchmark) []svcKey {
	base := quickKey(bm)
	var out []svcKey
	switch bm.Name {
	case "power":
		work := base.size * base.iters
		type combo struct{ size, iters, dist int }
		var cs []combo
		for it := 1; it <= 4; it++ {
			for s := 1; s*it <= work+work/2; s++ {
				if d := max(s*it-work, work-s*it); d <= work/2 {
					cs = append(cs, combo{s, it, d})
				}
			}
		}
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].dist != cs[j].dist {
				return cs[i].dist < cs[j].dist
			}
			return cs[i].size < cs[j].size
		})
		for _, c := range cs {
			out = append(out, svcKey{bench: bm.Name, size: c.size, iters: c.iters})
		}
	case "perimeter":
		out = []svcKey{{bench: bm.Name, size: base.size - 1}}
	default:
		// tsp and voronoi scale with their size, health with iterations:
		// alternate above and below the quick value.
		v0 := base.size
		if bm.Name == "health" {
			v0 = base.iters
		}
		for d := 1; d <= v0*3/4; d++ {
			for _, v := range []int{v0 + d, v0 - d} {
				k := base
				if bm.Name == "health" {
					k.iters = v
				} else {
					k.size = v
				}
				out = append(out, k)
			}
		}
	}
	var keep []svcKey
	for _, k := range out {
		if k != base {
			keep = append(keep, k)
		}
	}
	return keep
}

// serviceStream draws n jobs of the service mix: 60% repeat a source
// already sent (a unit-cache hit, or single-flight batching), 30% a new size
// of an existing program (a cache miss, an incremental per-function splice,
// and a store), 10% a seen source with transport faults. The mix is
// stratified so every seed offers nearly the same work in a different
// order: each block of 5 jobs covers every program once, each block of 10
// holds 6 repeats, 3 new sizes and 1 fault job, and each program takes its
// new sizes nearest-first, so any prefix of the stream asks for about the
// same work under every seed. The seed picks the order of programs and
// kinds, which seen source a repeat or fault job uses, and the fault seed.
// seen carries the sources sent so far between calls.
func serviceStream(r *rand.Rand, n int, seen map[string][]svcKey) []svcJob {
	progs := olden.All()
	kindBlock := []string{"repeat", "repeat", "repeat", "repeat", "repeat", "repeat", "new", "new", "new", "fault"}
	jobs := make([]svcJob, n)
	need := map[string]int{}
	var perm, kinds []int
	for i := range jobs {
		if i%len(progs) == 0 {
			perm = r.Perm(len(progs))
		}
		if i%len(kindBlock) == 0 {
			kinds = r.Perm(len(kindBlock))
		}
		bm := progs[perm[i%len(progs)]]
		jobs[i] = svcJob{key: svcKey{bench: bm.Name}, kind: kindBlock[kinds[i%len(kindBlock)]]}
		if jobs[i].kind == "new" {
			need[bm.Name]++
		}
	}
	pools := map[string][]svcKey{}
	for _, bm := range progs {
		if len(seen[bm.Name]) == 0 {
			seen[bm.Name] = []svcKey{quickKey(bm)}
		}
		var pool []svcKey
		for _, k := range sizeCandidates(bm) {
			if len(pool) == need[bm.Name] {
				break
			}
			if !slices.Contains(seen[bm.Name], k) {
				pool = append(pool, k)
			}
		}
		pools[bm.Name] = pool
	}
	for i := range jobs {
		name := jobs[i].key.bench
		if jobs[i].kind == "new" && len(pools[name]) > 0 {
			jobs[i].key = pools[name][0]
			pools[name] = pools[name][1:]
			seen[name] = append(seen[name], jobs[i].key)
			continue
		}
		if jobs[i].kind == "new" {
			jobs[i].kind = "repeat" // the program has no new size left
		}
		k := seen[name][r.IntN(len(seen[name]))]
		if jobs[i].kind == "fault" {
			k.faultSeed = 1 + uint64(r.IntN(3))
		}
		jobs[i].key = k
	}
	return jobs
}

// expected is a request's answer from a direct Pipeline.Do + Run, and its
// source text.
type expected struct {
	payload []byte
	events  int64
	visible string
	src     string
}

func expect(p *core.Pipeline, k svcKey) (*expected, error) {
	bm := olden.ByName(k.bench)
	params := olden.QuickParams(bm)
	params.Size, params.Iters = k.size, k.iters
	name, src := bm.Name+".ec", bm.Source(params)
	cres, err := p.Do(core.CompileRequest{Name: name, Source: src})
	if err != nil {
		return nil, err
	}
	rc := core.RunConfig{Nodes: serviceNodes, Fuel: serviceFuel}
	if k.faultSeed != 0 {
		if rc.Faults, err = earthsim.ParseFaultSpec(serviceFaults); err != nil {
			return nil, err
		}
		rc.Faults.Seed = k.faultSeed
	}
	res, err := p.Run(cres.Unit, rc)
	if err != nil {
		return nil, err
	}
	jr := &server.JobResult{Name: name, Benchmark: k.bench, SourceHash: cres.Unit.SourceHash,
		Nodes: serviceNodes, Optimized: true, TimeNs: res.Time, Output: res.Output, MainRet: res.MainRet,
		Counts: res.Counts, Faults: res.Faults, Warnings: cres.Unit.Warnings}
	payload, err := jr.CanonicalPayload()
	if err != nil {
		return nil, err
	}
	return &expected{payload: payload, events: res.Events, visible: res.Visible(), src: src}, nil
}

// earthd is an in-process server behind a loopback HTTP listener.
type earthd struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	dir    string
	client *http.Client
}

func startEarthd(workDir string, traced bool) (*earthd, error) {
	tmp := filepath.Join(workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "journal-*")
	if err != nil {
		return nil, err
	}
	srv, err := server.Open(server.Config{
		Shards:       serviceShards,
		DefaultNodes: serviceNodes,
		JournalDir:   dir,
		// Keep every job's timeline for the traced run to read back.
		Obs: obs.Options{Enabled: traced, Recent: 1 << 14},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	d := &earthd{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String(), dir: dir,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}}}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, drains the server (closing its journal) and
// removes the journal directory; it returns once the serving goroutine has
// exited.
func (d *earthd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.client.CloseIdleConnections()
	err = errors.Join(err, d.srv.Drain(ctx), os.RemoveAll(d.dir))
	return err
}

// post sends one job and returns the HTTP status and body.
func (d *earthd) post(req server.JobRequest) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Post(d.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *earthd) get(path string, v any) error {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

type serviceState struct {
	warm    []svcKey
	open    []svcJob
	capList []svcJob
	expect  map[svcKey]*expected
	d       *earthd
}

func serviceSetup(cfg runConfig, phase time.Duration) (*serviceState, error) {
	st := &serviceState{expect: make(map[svcKey]*expected)}
	for _, bm := range olden.All() {
		st.warm = append(st.warm, quickKey(bm))
	}
	r, seen := cfg.rng(3), map[string][]svcKey{}
	openS := openShare * phase.Seconds()
	st.open = serviceStream(r, int(serviceRate*openS), seen)
	st.capList = serviceStream(r, int(1.5*capacityHint*(phase.Seconds()-openS)), seen)
	// The answers every job must match, from direct compiles and runs
	// spread over at most nproc goroutines.
	var keys []svcKey
	for _, k := range st.warm {
		keys = append(keys, k)
	}
	for _, l := range [][]svcJob{st.open, st.capList} {
		for _, j := range l {
			keys = append(keys, j.key)
		}
	}
	c := cache.New(cache.DefaultCapacity, "")
	var (
		mu       sync.Mutex
		next     atomic.Int64
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := core.NewPipeline(core.Options{Optimize: true, Cache: c})
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				mu.Lock()
				_, done := st.expect[keys[i]]
				if !done {
					st.expect[keys[i]] = nil // claimed
				}
				mu.Unlock()
				if done {
					continue
				}
				e, err := expect(p, keys[i])
				mu.Lock()
				st.expect[keys[i]] = e
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%+v: %w", keys[i], err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	d, err := st.startWarm(cfg.workDir, false)
	if err != nil {
		return nil, err
	}
	st.d = d
	return st, nil
}

// startWarm starts an earthd and sends each program's quick-size job once,
// so the stream's first repeats find them cached.
func (st *serviceState) startWarm(workDir string, traced bool) (*earthd, error) {
	d, err := startEarthd(workDir, traced)
	if err != nil {
		return nil, err
	}
	for i, k := range st.warm {
		code, body, err := d.post(k.request(fmt.Sprintf("warm-%d", i), false))
		if err == nil {
			err = st.checkPayload(k, code, body, nil)
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up: %w", err), d.stop())
		}
	}
	return d, nil
}

// checkPayload decodes a job's response and compares its canonical payload
// with the direct run's.
func (st *serviceState) checkPayload(k svcKey, code int, body []byte, into *server.JobResult) error {
	if code != http.StatusOK {
		return fmt.Errorf("job %+v: status %d: %s", k, code, bytes.TrimSpace(body))
	}
	var jr server.JobResult
	if err := json.Unmarshal(body, &jr); err != nil {
		return fmt.Errorf("job %+v: %w", k, err)
	}
	got, err := jr.CanonicalPayload()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, st.expect[k].payload) {
		return fmt.Errorf("job %+v: payload %s differs from the direct run's %s", k, got, st.expect[k].payload)
	}
	if into != nil {
		*into = jr
	}
	return nil
}

// jobRecord is one job's trip through the service.
type jobRecord struct {
	job             svcJob
	id              string
	due, sent, done time.Time
	res             server.JobResult
	ok              bool
	refused         bool // answered 429 or 503
}

// openLoop offers st.open at serviceRate: the calling goroutine submits
// each job asynchronously when it is due, and one collector goroutine
// gathers results in submission order by re-submitting each id, which
// blocks until that job is done. A job that completes before an older one
// is therefore timed when the collector reaches it.
func (st *serviceState) openLoop(d *earthd, o *outcome) []*jobRecord {
	recs := make([]*jobRecord, len(st.open))
	accepted := make(chan *jobRecord, len(recs)) // one slot per send
	var (
		wg      sync.WaitGroup
		pending atomic.Int64 // jobs accepted and not yet collected
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rec := range accepted {
			code, body, err := d.post(rec.job.key.request(rec.id, false))
			rec.done = time.Now()
			pending.Add(-1)
			if err == nil {
				err = st.checkPayload(rec.job.key, code, body, &rec.res)
			}
			rec.ok = o.check(err)
		}
	}()
	start := time.Now()
	for i, j := range st.open {
		rec := &jobRecord{job: j, id: fmt.Sprintf("open-%d", i),
			due: start.Add(time.Duration(float64(i) / serviceRate * float64(time.Second)))}
		recs[i] = rec
		time.Sleep(time.Until(rec.due.Add(-probeGap)))
		if pending.Load() == 0 && time.Until(rec.due) > probeGap/2 {
			// earthd is idle until this job is due: time the reference
			// loop (calib.go) without slowing any job.
			o.probeHost(1)
		}
		time.Sleep(time.Until(rec.due))
		rec.sent = time.Now()
		code, body, err := d.post(j.key.request(rec.id, true))
		rec.refused = code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("job %+v: async submission refused: status %d: %s", j.key, code, bytes.TrimSpace(body))
		}
		if err != nil {
			rec.done = time.Now()
			o.check(err)
			continue
		}
		pending.Add(1)
		accepted <- rec
	}
	close(accepted)
	wg.Wait()
	return recs
}

// capacity runs the closed loop: one client per CPU, each sending its next
// job when the previous one returns, until the deadline. It returns the
// jobs completed per second.
func (st *serviceState) capacity(d *earthd, o *outcome, dur time.Duration) (float64, []*jobRecord) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		recs []*jobRecord
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				j := st.capList[i%len(st.capList)]
				rec := &jobRecord{job: j, id: fmt.Sprintf("cap-%d", i), sent: time.Now()}
				rec.due = rec.sent
				code, body, err := d.post(j.key.request(rec.id, false))
				rec.done = time.Now()
				if err == nil {
					err = st.checkPayload(j.key, code, body, &rec.res)
				}
				rec.ok = o.check(err)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	done := 0
	for _, r := range recs {
		if r.ok {
			done++
		}
	}
	return float64(done) / time.Since(start).Seconds(), recs
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func runService(cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg)
	phase := cfg.seconds
	if cfg.trace {
		phase = cfg.seconds / 2
	}
	var prev *serviceState
	st, setupS, err := repeatSetup(setupRepeats, func() (*serviceState, error) {
		if prev != nil {
			// Only the last set-up's server is kept.
			if err := prev.d.stop(); err != nil {
				return nil, err
			}
		}
		st, err := serviceSetup(cfg, phase)
		prev = st
		return st, err
	})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupS
	counts := map[string]int{}
	for _, j := range st.open {
		counts[j.kind]++
	}
	fmt.Fprintf(cfg.out, "mix: open-loop %d jobs at %.0f/s (repeat=%d new=%d fault=%d), distinct requests=%d\n",
		len(st.open), serviceRate, counts["repeat"], counts["new"], counts["fault"], len(st.expect))

	// The reference loop runs only while earthd is idle, so the server's
	// own load never slows it: here, and in the open loop's gaps.
	o.probeHost(serviceProbes)
	open := st.openLoop(st.d, o)
	jps, capRecs := st.capacity(st.d, o, phase-time.Duration(openShare*float64(phase)))
	if err := st.d.stop(); err != nil {
		return nil, err
	}
	m := o.metrics
	openMetrics(m, open, st.expect, openShare*phase.Seconds()*1000)
	m["jobs_per_s"] = jps
	// The closed loop keeps both CPUs busy, whose joint speed the
	// single-threaded reference loop does not follow: over ten runs of the
	// same code on a 2-vCPU VM, capacity moved 3% as timed and 11-13%
	// scaled.
	o.asTimed = map[string]bool{"jobs_per_s": true}
	var late, lat samples
	for _, r := range open {
		late.addDur(r.sent.Sub(r.due), time.Millisecond)
		lat.addDur(r.done.Sub(r.due), time.Millisecond)
	}
	fmt.Fprintf(cfg.out, "open loop: all jobs p50=%.2fms p99=%.2fms late_p99=%.2fms; capacity: %.1f jobs/s over %d jobs\n",
		lat.median(), lat.quantile(0.99), late.quantile(0.99), jps, len(capRecs))
	if !cfg.trace {
		return o, nil
	}

	m["loadgen.late_ms"] = late.quantile(0.99)
	d, err := st.startWarm(cfg.workDir, true)
	if err != nil {
		return nil, err
	}
	tOpen := st.openLoop(d, o)
	tjps, tcap := st.capacity(d, o, phase-time.Duration(openShare*float64(phase)))
	serverLayers(st, d, o, tOpen, tcap)
	if err := d.stop(); err != nil {
		return nil, err
	}
	quickProgramLayers(st, o)
	m["trace.overhead_frac"] = jps/tjps - 1
	return o, nil
}

// openMetrics computes the end-to-end metrics of the open loop. Jobs are
// grouped into one cell per program; each cell's figure is read at its fast
// end (typicalQ; rates at 1-typicalQ), and the metrics are quantiles over
// the programs. A failed or refused job counts as missing every latency
// target, with latency failLatency (ms).
func openMetrics(m map[string]float64, open []*jobRecord, expect map[svcKey]*expected, failLatency float64) {
	lat, cold, warm, runs, mips, mevents := cells{}, cells{}, cells{}, cells{}, cells{}, cells{}
	for _, r := range open {
		bench := r.job.key.bench
		if !r.ok {
			lat.add(bench, failLatency)
			continue
		}
		lat.addDur(bench, r.done.Sub(r.due), time.Millisecond)
		switch r.job.kind {
		case "new":
			cold.add(bench, ms(r.res.CompileNs))
		case "repeat":
			warm.add(bench, float64(r.res.CompileNs)/1e3)
		}
		runs.add(bench, ms(r.res.RunNs))
		mips.add(bench, float64(r.res.Counts.Instructions)/float64(r.res.RunNs)*1e3)
		mevents.add(bench, float64(expect[r.job.key].events)/float64(r.res.RunNs)*1e3)
	}
	l, c, rn := lat.typical(), cold.typical(), runs.typical()
	m["job_p50_ms"] = l.median()
	m["job_p99_ms"] = l.quantile(0.99)
	m["compile_cold_ms"] = c.median()
	m["compile_cold_p90_ms"] = c.quantile(0.9)
	m["compile_warm_us"] = warm.typical().median()
	m["run_ms"] = rn.median()
	m["run_p90_ms"] = rn.quantile(0.9)
	m["guest_mips"] = mips.typicalRate().median()
	m["mevents_per_s"] = mevents.typicalRate().median()
}

// serverLayers reads the traced run's job results and server timelines
// for the server, journal and cache layers.
func serverLayers(st *serviceState, d *earthd, o *outcome, open, capRecs []*jobRecord) {
	m := o.metrics
	var queue, hit, miss, run, httpMs, appendMs, completeMs samples
	var nsInstrNs, nsInstr, nsEventNs, nsEvent float64
	var batched, total, hits, misses, refused int
	for _, r := range open {
		if r.refused {
			refused++
		}
		if !r.ok {
			continue
		}
		total++
		queue.add(ms(r.res.QueueNs))
		run.add(ms(r.res.RunNs))
		if r.res.Batched {
			batched++
		}
		switch r.job.key.bench {
		case "power", "perimeter":
			nsInstrNs += float64(r.res.RunNs)
			nsInstr += float64(r.res.Counts.Instructions)
		case "tsp", "voronoi":
			nsEventNs += float64(r.res.RunNs)
			nsEvent += float64(st.expect[r.job.key].events)
		}
		var tl obs.Timeline
		if !o.check(d.get("/jobs/"+r.id+"/timeline", &tl)) {
			continue
		}
		job := o.log.add("service.job", r.id, -1, r.due, r.done)
		for _, sp := range tl.Spans {
			addTimeline(o.log, r.id, job, tl.StartedAt, sp)
			switch sp.Kind {
			case obs.KindAccept:
				for _, c := range sp.Children {
					if c.Kind == obs.KindJournalAppend {
						appendMs.add(ms(c.DurNs))
					}
				}
			case obs.KindJournalComplete:
				completeMs.add(ms(sp.DurNs))
			case obs.KindCompile:
				switch compileOutcome(sp) {
				case "hit":
					hits++
					hit.add(ms(sp.DurNs))
				case "miss":
					misses++
					miss.add(ms(sp.DurNs))
				}
			}
		}
	}
	for _, r := range capRecs {
		if r.ok {
			httpMs.add(ms(r.done.Sub(r.sent).Nanoseconds() - r.res.QueueNs - r.res.CompileNs - r.res.RunNs))
		}
	}
	pct := func(prefix string, s samples) {
		m[prefix+"_p50_ms"] = s.median()
		m[prefix+"_p99_ms"] = s.quantile(0.99)
	}
	pct("server.queue", queue)
	pct("server.compile_hit", hit)
	pct("server.compile_miss", miss)
	pct("server.run", run)
	pct("server.http", httpMs)
	pct("journal.append", appendMs)
	pct("journal.complete", completeMs)
	m["server.batched_ratio"] = ratio(float64(batched), float64(total))
	m["server.rejected"] = float64(refused)
	m["earthsim.ns_per_instr"] = ratio(nsInstrNs, nsInstr)
	m["earthsim.ns_per_event"] = ratio(nsEventNs, nsEvent)
	m["cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	var reg struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if o.check(d.get("/metrics.json", &reg)) {
		var reused, recompiled float64
		for _, c := range reg.Counters {
			switch c.Name {
			case "earth_cache_funcs_reused_total":
				reused = float64(c.Value)
			case "earth_cache_funcs_recompiled_total":
				recompiled = float64(c.Value)
			}
		}
		m["cache.func_reuse_ratio"] = ratio(reused, reused+recompiled)
	}

}

// quickProgramLayers builds each quick-size program through the compile
// layers and runs it directly, for the compile and simulator layers. The
// lookups go to a cache holding just those programs.
func quickProgramLayers(st *serviceState, o *outcome) {
	m := o.metrics
	lc := cache.New(cache.DefaultCapacity, "")
	lp := core.NewPipeline(core.Options{Optimize: true, Cache: lc})
	keys := map[svcKey]string{}
	for _, k := range st.warm {
		req := core.CompileRequest{Name: k.bench + ".ec", Source: st.expect[k].src}
		_, err := lp.Do(req)
		o.check(err)
		keys[k] = lp.CacheKey(req)
	}
	var rounds []layerTotals
	var lookups, allocs, bytes, layerDo, coldDo samples
	var totals cellCounts
	for round := 0; round < 3; round++ {
		var lt layerTotals
		var roundDo time.Duration
		for _, k := range st.warm {
			e := st.expect[k]
			id := fmt.Sprintf("layers%d/%s", round, k.bench)
			b, doWall, err := pairedBuild(lp, k.bench+".ec", e.src, o.log, id, -1)
			if !o.check(err) {
				continue
			}
			lt.add(b)
			roundDo += doWall
			ix := o.log.start("cache.lookup", id, -1)
			t0 := time.Now()
			_, found := lc.LookupUnit(keys[k])
			lookups.addDur(time.Since(t0), time.Microsecond)
			o.log.end(ix)
			if !found {
				o.check(fmt.Errorf("%s: direct cache lookup missed", k.bench))
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			ix = o.log.start("earthsim.run", id, -1)
			res, err := earthsim.New(b.code, earthsim.DefaultConfig(serviceNodes)).Run()
			o.log.end(ix)
			runtime.ReadMemStats(&ms1)
			if err == nil && res.Visible() != e.visible {
				err = fmt.Errorf("%s: layer-built Visible() %q differs from Pipeline-built %q", k.bench, res.Visible(), e.visible)
			}
			if !o.check(err) {
				continue
			}
			allocs.add(float64(ms1.Mallocs - ms0.Mallocs))
			bytes.add(float64(ms1.TotalAlloc - ms0.TotalAlloc))
			if round == 0 {
				c := countsOf(res)
				totals.instr += c.instr
				totals.events += c.events
				totals.timeNs += c.timeNs
				totals.remoteOps += c.remoteOps
			}
		}
		rounds = append(rounds, lt)
		var sum time.Duration
		for _, ph := range compilePhases[:len(compilePhases)-1] {
			sum += lt.phases[ph]
		}
		layerDo.addDur(sum, time.Millisecond)
		coldDo.addDur(roundDo, time.Millisecond)
	}
	o.check(phaseSumCheck("service", layerDo, coldDo))
	compileLayerMetrics(m, rounds)
	m["cache.lookup_us"] = lookups.median()
	m["earthsim.allocs_per_run"] = allocs.median()
	m["earthsim.bytes_per_run"] = bytes.median()
	m["earthsim.guest_instructions"] = float64(totals.instr)
	m["earthsim.events"] = float64(totals.events)
	m["earthsim.sim_time_ns"] = float64(totals.timeNs)
	m["earthsim.remote_ops"] = float64(totals.remoteOps)
}

// compileOutcome classifies a job's compile span by its children: phase
// children mean the job compiled (a unit-cache miss), a lone cache.lookup a
// unit-cache hit, and no children a compile shared with another job.
func compileOutcome(sp obs.SpanNode) string {
	if len(sp.Children) == 0 {
		return "batched"
	}
	for _, c := range sp.Children {
		if c.Kind != obs.KindCacheLookup {
			return "miss"
		}
	}
	return "hit"
}

// addTimeline copies a server-side span subtree into the benchmark's log
// under the job's client-side span.
func addTimeline(l *spanLog, id string, parent int, epoch time.Time, sp obs.SpanNode) {
	start := epoch.Add(time.Duration(sp.StartNs))
	ix := l.add("earthd."+sp.Kind, id, parent, start, start.Add(time.Duration(sp.DurNs)))
	for _, c := range sp.Children {
		addTimeline(l, id, ix, epoch, c)
	}
}
