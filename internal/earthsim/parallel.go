package earthsim

// The event loop: one event-loop shard per simulated node, synchronized by
// conservative lookahead (a barrier-synchronous variant of the classic
// null-message protocol). Every run takes this path, whatever the node
// count, wire latency or worker count. The coordinator repeatedly:
//
//  1. delivers cross-shard mail buffered during the previous round, in
//     (sender shard id, send order) — a total order independent of how many
//     worker goroutines ran the windows;
//  2. computes T1 = min over shards of the local event-heap head and T2 =
//     the second such minimum;
//  3. grants every shard an inclusive limit through which it may dispatch
//     events without seeing a message it has not received yet: messages
//     generated this round originate at times ≥ T1 and need the wire
//     latency L to arrive, so T1+L-1 is safe for everyone; the shard holding
//     T1 itself is additionally safe through min(T2+L, T1+2L)-1 — nothing
//     can reach it earlier, neither directly from another shard (≥ T2+L)
//     nor relayed off its own sends (≥ T1+2L). Both limits are clamped at
//     T1;
//  4. runs the active shards' windows on a worker pool (inline when
//     SimWorkers is 1) and barriers.
//
// Determinism: the limits depend only on heap heads, mail delivery order is
// fixed, and each window is a sequential per-shard replay — so the division
// of windows among workers cannot alter any outcome, and the run is
// bit-identical (Result, trace, telemetry) across SimWorkers counts.
//
// Progress and safety at the edges. For L ≥ 1 the limit of the shard
// holding T1 is at least T1+L-1 ≥ T1, so every round dispatches at least one
// event. For L = 0 the clamp at T1 makes every active shard, the argmin
// included, dispatch only events at exactly T1: mail it sends arrives no
// earlier than T1, and is delivered next round, still at T1 — never into a
// receiver's past, since no shard has dispatched anything beyond T1. A
// one-node machine has no cross-shard mail, so its lookahead is unbounded
// (see New) and its one shard runs the whole simulation in one window.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/profile"
)

// midMask extracts the shard-local trace message id from an encoded id; the
// owning shard id + 1 lives in the bits above (see encMid).
const midMask = int64(1)<<40 - 1

// encMid tags a shard-local trace message id with the owning shard so a
// reference that travels with the message — into another shard's spans,
// fault events, or completion path — can find its way back to the recorder
// that issued it. 0 stays "no message" (which also covers tracing
// disabled).
func (m *shard) encMid(local int64) int64 {
	if local == 0 {
		return local
	}
	return int64(m.id+1)<<40 | local
}

// msgDone routes a message-completion trace event to the recorder that owns
// the id: our own (decode and record now) or another shard's (defer to
// foreignDones, applied before the trace merge at Run end — Done is a single
// idempotent field write per message, so deferral cannot reorder anything).
func (m *shard) msgDone(mid, t int64) {
	if mid == 0 {
		return
	}
	if int(mid>>40)-1 == m.id {
		m.tr.MsgDone(mid&midMask, t)
		return
	}
	m.foreignDones = append(m.foreignDones, doneRec{mid: mid, at: t})
}

// totals are the machine-wide sums the coordinator keeps incrementally:
// each window's deltas fold in at the barrier that ends it.
type totals struct {
	instr, events, live int64
}

// begin snapshots the state a window starts from: the rest of the machine's
// instructions (for the shared fuel budget) and the shard's own counters,
// whose deltas fold picks up at the barrier.
func (s *shard) begin(totalInstr int64) {
	s.othersInstr = totalInstr - s.counts.Instructions
	s.barInstr = s.counts.Instructions
	s.barEvents = s.nEvents
	s.barLive = s.liveFibers
}

// fold adds the deltas of s's last window to the totals.
func (t *totals) fold(s *shard) {
	t.instr += s.counts.Instructions - s.barInstr
	t.events += s.nEvents - s.barEvents
	t.live += s.liveFibers - s.barLive
}

// windowJob asks a worker to run one shard's window through limit.
type windowJob struct {
	s     *shard
	limit int64
}

// runWindow dispatches the shard's local events at times ≤ limit, stopping
// early on a trap. The global event budget and wall clock are enforced here
// as per-shard backstops (a runaway window must not outlive the barrier
// checks).
func (s *shard) runWindow(limit int64) {
	for len(s.events) > 0 && s.events[0].time <= limit {
		if s.trap != nil {
			return
		}
		s.nEvents++
		if s.nEvents > s.maxEvents {
			s.trapw(ErrFuelExhausted, "event budget exceeded on shard %d (%d events, t=%dns) — livelock?%s",
				s.id, s.nEvents, s.lastTime, s.blockedReport())
			return
		}
		if s.wallLimit > 0 && s.nEvents&4095 == 0 && time.Now().After(s.wallDeadline) {
			s.trapw(ErrDeadline, "host wall clock exceeded %s (t=%dns, shard %d)",
				s.wallLimit, s.lastTime, s.id)
			return
		}
		if s.ctx != nil && s.nEvents&4095 == 0 {
			if s.ctxCheck(); s.trap != nil {
				return
			}
		}
		ev := s.events.pop()
		if s.ms != nil {
			s.sampleTick(ev.time)
		}
		s.lastTime = ev.time
		s.dispatch(ev)
	}
}

// satAdd is a+b saturating at MaxInt64 (an empty heap's head is the MaxInt64
// sentinel).
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// shardHeap is a binary min-heap of shards with non-empty event queues,
// keyed by (cached head event time, shard id) — the same total order the
// coordinator's old full scan used, so T1/T2/argmin are unchanged. Each
// shard caches its key in s.head and its position in s.hpos, making the
// per-round coordinator cost O(active shards · log S) instead of O(S).
type shardHeap struct {
	a []*shard
}

func heapLess(x, y *shard) bool {
	return x.head < y.head || (x.head == y.head && x.id < y.id)
}

func (h *shardHeap) len() int { return len(h.a) }

func (h *shardHeap) swap(i, j int) {
	h.a[i], h.a[j] = h.a[j], h.a[i]
	h.a[i].hpos, h.a[j].hpos = i, j
}

func (h *shardHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(h.a[i], h.a[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *shardHeap) down(i int) {
	n := len(h.a)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && heapLess(h.a[r], h.a[c]) {
			c = r
		}
		if !heapLess(h.a[c], h.a[i]) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// push inserts s; s.head must already hold its key.
func (h *shardHeap) push(s *shard) {
	s.hpos = len(h.a)
	h.a = append(h.a, s)
	h.up(s.hpos)
}

// pop removes and returns the minimum shard.
func (h *shardHeap) pop() *shard {
	s := h.a[0]
	last := len(h.a) - 1
	h.swap(0, last)
	h.a[last] = nil
	h.a = h.a[:last]
	if last > 0 {
		h.down(0)
	}
	s.hpos = -1
	return s
}

// fix restores heap order after the key at position i changed.
func (h *shardHeap) fix(i int) {
	h.up(i)
	h.down(i)
}

// refresh re-keys s from its event queue after mail arrived: fix its heap
// position, or insert it if its queue was empty before.
func (h *shardHeap) refresh(s *shard) {
	nh := s.events[0].time
	if s.hpos < 0 {
		s.head = nh
		h.push(s)
		return
	}
	if nh != s.head {
		s.head = nh
		h.fix(s.hpos)
	}
}

// post delivers s's outbox to the receiving shards' queues in send order,
// appending every receiver not yet stamped this round to recv.
func post(s *shard, round int64, recv []*shard) []*shard {
	for i, o := range s.outbox {
		o.to.schedule(o.at, evNetArrive, o.node, o.g)
		if o.to.mailStamp != round {
			o.to.mailStamp = round
			recv = append(recv, o.to)
		}
		s.outbox[i] = mail{}
	}
	s.outbox = s.outbox[:0]
	return recv
}

// Run executes the program's main function on node 0 and simulates until
// completion (or deadlock/trap). The round structure — barrier, T1/T2
// limits, windows, mail — is described in the file comment above; this
// implementation keeps every machine-wide quantity (head order,
// instruction/event/fiber totals) incrementally, touching only the round's
// active shards and mail receivers, so coordinator overhead scales with
// traffic rather than machine size.
func (m *Machine) Run() (*Result, error) {
	maxEvents := m.cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 500_000_000
	}
	var deadline time.Time
	if m.wallLimit > 0 {
		deadline = time.Now().Add(m.wallLimit)
	}
	for _, s := range m.sh {
		s.maxEvents = maxEvents
		s.wallLimit = m.wallLimit
		s.wallDeadline = deadline
		s.ctx = m.ctx
		s.hpos = -1
	}
	s0 := m.sh[0]
	main := s0.newFiber(0, m.prog.Main, nil, replyRoute{kind: 0})
	s0.enqueueReady(m.nodes[0], main, 0)

	inline := m.workers <= 1
	var (
		jobs chan windowJob
		wg   sync.WaitGroup
	)
	if !inline {
		jobs = make(chan windowJob, len(m.sh))
		for w := 0; w < m.workers; w++ {
			go func() {
				for j := range jobs {
					j.s.runWindow(j.limit)
					wg.Done()
				}
			}()
		}
		defer close(jobs)
	}

	// Incremental machine-wide totals; windows fold their deltas in at each
	// barrier. Only shard 0 has any state yet (the main fiber), but summing
	// the loop keeps no assumptions.
	var tot totals
	heads := shardHeap{a: make([]*shard, 0, len(m.sh))}
	for _, s := range m.sh {
		tot.instr += s.counts.Instructions
		tot.events += s.nEvents
		tot.live += s.liveFibers
		if len(s.events) > 0 {
			s.head = s.events[0].time
			heads.push(s)
		}
	}

	L := m.lookahead
	actives := make([]*shard, 0, len(m.sh))
	senders := make([]*shard, 0, 8)
	recv := make([]*shard, 0, 8)
	var round, nextPoll int64
	for {
		round++
		if s0.mainDone && tot.live == 0 {
			break
		}
		if heads.len() == 0 {
			return m.fail(fmt.Errorf("earthsim: %w — event queues drained with main incomplete (%d live fibers)%s",
				ErrDeadlock, tot.live, m.blockedReports()))
		}
		t1 := heads.a[0].head
		if tot.events > maxEvents {
			return m.fail(fmt.Errorf("earthsim: %w: event budget exceeded (%d events, t=%dns) — livelock?%s",
				ErrFuelExhausted, tot.events, t1, m.blockedReports()))
		}
		// The host clock and the context are polled every 4096 events
		// machine-wide, the cadence the windows use per shard: a round often
		// dispatches only a few events, and reading the clock every round
		// costs more than the events.
		if tot.events >= nextPoll {
			nextPoll = tot.events + 4096
			if m.wallLimit > 0 && time.Now().After(deadline) {
				return m.fail(fmt.Errorf("earthsim: %w: host wall clock exceeded %s (t=%dns, %d events)",
					ErrDeadline, m.wallLimit, t1, tot.events))
			}
			if m.ctx != nil {
				select {
				case <-m.ctx.Done():
					return m.fail(fmt.Errorf("earthsim: %w: %v (t=%dns, %d events)",
						ErrCanceled, m.ctx.Err(), t1, tot.events))
				default:
				}
			}
		}
		if m.sampler != nil {
			m.mergeSamples(t1)
		}

		// Pop this round's active shards: argmin first (T2 is the next head
		// once it is out), then everyone through the shared limit T1+L-1.
		// The argmin's own limit may reach further — min(T2+L, T1+2L)-1:
		// nothing can reach it earlier, neither directly from another shard
		// (≥ T2+L) nor relayed off its own sends (≥ T1+2L). Both limits are
		// clamped at T1, which only binds when L = 0.
		limOthers := max(t1, satAdd(t1, L)-1)
		relay := satAdd(satAdd(t1, L), L)

		// Single-active fast path. The second-smallest head is the lesser
		// root child (every other shard sits below one of them); when it
		// clears the shared limit the argmin runs alone, its limit
		// simplifies to T1+2L-1 (T2+L ≥ T1+2L here), and the pop/push and
		// active-list machinery degenerates — run the window with the shard
		// still in the heap and re-key it in place. On
		// nearest-neighbor workloads, and always on a one-node machine,
		// almost every round takes this path.
		t2peek := int64(math.MaxInt64)
		if n := heads.len(); n > 1 {
			t2peek = heads.a[1].head
			if n > 2 && heads.a[2].head < t2peek {
				t2peek = heads.a[2].head
			}
		}
		if t2peek > limOthers {
			s := heads.a[0]
			s.begin(tot.instr)
			s.runWindow(max(t1, relay-1))
			tot.fold(s)
			if s.trap != nil {
				return m.fail(s.trap)
			}
			recv = post(s, round, recv[:0])
			if len(s.events) > 0 {
				s.head = s.events[0].time
				heads.fix(s.hpos)
			} else {
				heads.pop() // s is still the root: nothing above moved it
			}
			for _, r := range recv {
				heads.refresh(r)
			}
			continue
		}

		amin := heads.pop()
		t2 := int64(math.MaxInt64)
		if heads.len() > 0 {
			t2 = heads.a[0].head
		}
		limMin := max(t1, min(satAdd(t2, L), relay)-1)
		actives = actives[:0]
		actives = append(actives, amin)
		for heads.len() > 0 && heads.a[0].head <= limOthers {
			actives = append(actives, heads.pop())
		}
		for _, s := range actives {
			limit := limOthers
			if s == amin {
				limit = limMin
			}
			// begin reads only the barrier totals and the shard's own state,
			// which no other window touches, so the fuel view cannot depend
			// on how workers interleave windows.
			s.begin(tot.instr)
			if inline {
				s.runWindow(limit)
			} else {
				wg.Add(1)
				jobs <- windowJob{s, limit}
			}
		}
		if !inline {
			wg.Wait()
		}

		// Barrier: surface the lowest-id trap, fold window deltas into the
		// running totals, put the actives with events left back in the head
		// heap, then deliver mail in (sender shard id, send order) and re-key
		// every receiver whose queue changed.
		var trapped *shard
		senders = senders[:0]
		for _, s := range actives {
			if s.trap != nil && (trapped == nil || s.id < trapped.id) {
				trapped = s
			}
			tot.fold(s)
			if len(s.outbox) > 0 {
				// Insertion keeps senders sorted by id; a round has a handful.
				i := len(senders)
				senders = append(senders, s)
				for ; i > 0 && senders[i-1].id > s.id; i-- {
					senders[i] = senders[i-1]
				}
				senders[i] = s
			}
			if len(s.events) > 0 {
				s.head = s.events[0].time
				heads.push(s)
			}
		}
		if trapped != nil {
			return m.fail(trapped.trap)
		}
		recv = recv[:0]
		for _, s := range senders {
			recv = post(s, round, recv)
		}
		for _, r := range recv {
			heads.refresh(r)
		}
	}

	m.closeSamples()
	m.mergeTrace()
	return m.buildResult(), nil
}

// fail closes the telemetry series and folds the partial trace before
// surfacing a run error, so observers see everything up to the failure.
func (m *Machine) fail(err error) (*Result, error) {
	m.closeSamples()
	m.mergeTrace()
	return nil, err
}

// blockedReports concatenates every shard's blocked-fiber report.
func (m *Machine) blockedReports() string {
	var b strings.Builder
	for _, s := range m.sh {
		if r := s.blockedReport(); strings.HasPrefix(r, "; blocked") {
			b.WriteString(r)
		}
	}
	if b.Len() == 0 {
		return "; no blocked fibers recorded"
	}
	return b.String()
}

// closeSamples merges every whole sampling boundary the run reached and then
// closes the series with one sample at the end of activity, so short runs
// (under one interval) still record something and the final state is always
// visible. Safe on every exit path; no-op without a sampler.
func (m *Machine) closeSamples() {
	if m.sampler == nil {
		return
	}
	var tmax int64
	for _, s := range m.sh {
		tmax = max(tmax, s.lastTime)
	}
	m.mergeSamples(tmax)
	if tmax > m.gLast {
		m.mergeOne(tmax, true)
	}
}

// mergeOne builds and records the machine-wide sample at time t from one
// per-shard contribution each. With closing set the shards snapshot their
// final state at t; otherwise they take any boundary samples their own event
// flow has not reached.
func (m *Machine) mergeOne(t int64, closing bool) {
	sm := metrics.SimSample{Time: t, Nodes: make([]metrics.NodeSample, len(m.nodes))}
	nlinks := 0
	for _, sh := range m.sh {
		if closing {
			sh.takeSample(t)
		} else {
			sh.sampleTick(t)
		}
		nlinks += len(sh.ms.pend[sh.ms.pendAt].links)
	}
	if nlinks > 0 {
		sm.Links = make([]metrics.LinkSample, 0, nlinks)
	}
	for _, sh := range m.sh {
		ss := &sh.ms.pend[sh.ms.pendAt]
		sh.ms.pendAt++
		sm.Instructions += ss.instructions
		sm.RemoteReads += ss.remoteReads
		sm.RemoteWrites += ss.remoteWrites
		sm.BlkMoves += ss.blkMoves
		sm.LiveFibers += ss.liveFibers
		sm.Retries += ss.retries
		sm.Spurious += ss.spurious
		sm.Drops += ss.drops
		sm.Dups += ss.dups
		sm.Stalls += ss.stalls
		sm.Nodes[sh.id] = ss.node
		// Shard i's out-links all leave node i, sorted by destination, so
		// appending in shard order sorts the links by (src, dst).
		sm.Links = append(sm.Links, ss.links...)
		if sh.ms.pendAt == len(sh.ms.pend) {
			sh.ms.pend = sh.ms.pend[:0]
			sh.ms.pendAt = 0
			sh.ms.linkBuf = sh.ms.linkBuf[:0]
		}
	}
	m.gLast = t
	m.sampler.Record(sm)
}

// mergeTrace folds the per-shard recorders into the user's recorder, in
// shard order, renumbering message ids shard by shard. Deferred cross-shard
// completions are applied to their owning recorders first.
func (m *Machine) mergeTrace() {
	if m.tr == nil {
		return
	}
	for _, s := range m.sh {
		for _, d := range s.foreignDones {
			k := int(d.mid>>40) - 1
			m.sh[k].tr.MsgDone(d.mid&midMask, d.at)
		}
		s.foreignDones = s.foreignDones[:0]
	}
	off := make([]int64, len(m.sh)+1)
	for i, s := range m.sh {
		off[i+1] = off[i] + int64(s.tr.MsgCount())
	}
	mapRef := func(mid int64) int64 {
		if mid == 0 {
			return 0
		}
		return off[int(mid>>40)-1] + mid&midMask
	}
	for _, s := range m.sh {
		m.tr.Absorb(s.tr, mapRef)
	}
}

// buildResult sums the per-shard outcomes into the machine Result.
func (m *Machine) buildResult() *Result {
	s0 := m.sh[0]
	res := &Result{Time: s0.mainTime, MainRet: s0.mainRet}
	var out []outItem
	for _, s := range m.sh {
		c, d := &res.Counts, s.counts
		c.RemoteReads += d.RemoteReads
		c.RemoteWrites += d.RemoteWrites
		c.RemoteBlk += d.RemoteBlk
		c.LocalReads += d.LocalReads
		c.LocalWrites += d.LocalWrites
		c.LocalBlk += d.LocalBlk
		c.SharedOps += d.SharedOps
		c.RPCs += d.RPCs
		c.Spawns += d.Spawns
		c.BlkWords += d.BlkWords
		c.Instructions += d.Instructions
		c.Allocs += d.Allocs
		res.Events += s.nEvents
		out = append(out, s.output...)
	}
	res.Output = renderOutput(out)
	if m.prog.Profiled {
		p := profile.New()
		for _, s := range m.sh {
			p.Merge(s.prof)
		}
		p.Runs = 1
		res.Profile = p
	}
	if m.cfg.Faults != nil {
		fs := &FaultStats{}
		for _, s := range m.sh {
			fs.Drops += s.fstats.Drops
			fs.Dups += s.fstats.Dups
			fs.Delayed += s.fstats.Delayed
			fs.Stalls += s.fstats.Stalls
			fs.Retries += s.fstats.Retries
			fs.DupSuppressed += s.fstats.DupSuppressed
			fs.SpuriousRetries += s.fstats.SpuriousRetries
			fs.WindowQueued += s.fstats.WindowQueued
			for c := range fs.RetriesByClass {
				fs.RetriesByClass[c] += s.fstats.RetriesByClass[c]
			}
			fs.MaxAttempt = max(fs.MaxAttempt, s.fstats.MaxAttempt)
		}
		res.Faults = fs
	}
	return res
}
