package mmu

import (
	"fmt"
	"slices"

	"mnpusim/internal/clock"
	"mnpusim/internal/invariant"
	"mnpusim/internal/mem"
	"mnpusim/internal/obs"
)

// Backend is the memory system the MMU issues physical requests into;
// *dram.Memory satisfies it.
//
// The drain relies on what Enqueue reports about a refusal. A backend
// that refuses a request for lack of space sets r.DRAMChannel to the
// request's channel plus one, and decides by channel alone: while a
// channel refuses one request it refuses every request that maps to it.
// A channel that refused stays refusing until the backend next ticks,
// because between its ticks only admissions change its queues. The
// drain therefore re-offers only the oldest waiting request of each
// channel, at most once per cycle. A request refused with DRAMChannel
// left at zero is offered again on every drain pass instead.
type Backend interface {
	CanAccept(core int, addr uint64) bool
	Enqueue(now clock.Global, r *mem.Request) bool
}

// CoreStats aggregates per-core translation counters.
type CoreStats struct {
	Translations    int64
	TLBHits         int64
	TLBMisses       int64
	CoalescedMisses int64
	Walks           int64
	WalkCycles      int64 // sum of walk latencies (global cycles)
	MaxWalkCycles   int64
	PortStalls      int64 // Submit rejections: TLB ports exhausted
	MSHRStalls      int64 // Submit rejections: pending-walk limit
}

// AvgWalkCycles returns the mean walk latency.
func (s CoreStats) AvgWalkCycles() float64 {
	if s.Walks == 0 {
		return 0
	}
	return float64(s.WalkCycles) / float64(s.Walks)
}

type mshrEntry struct {
	waiters []*mem.Request
}

// MMU is the memory-management unit shared by the cores of one NPU
// package. It owns the TLB(s), the page-table walker pool, and each
// core's page table, and forwards translated requests to the Backend.
type MMU struct {
	cfg     Config
	backend Backend
	ids     *mem.IDAllocator

	tlbs   []*TLB // one if shared, else per core
	tables []*PageTable

	pool     *walkerPool
	dws      *dwsPool
	walkFIFO []walkRequest
	active   []*walkJob

	// mshr[core] maps a VPN with a pending walk to its waiting
	// requests.
	mshr []map[uint64]*mshrEntry

	// issueQ[core] holds translated requests awaiting DRAM admission.
	issueQ []mem.Queue
	rrNext int

	// stalls[core] summarises the refused head of core's drain window.
	stalls []stall
	// refusedAt[ch] is the last cycle DRAM channel ch refused a request.
	refusedAt []clock.Global

	// Per-tick scratch, one entry per core, reused across ticks: the
	// drain's blocked cores and the DWS policy's pending walk counts.
	blocked []bool
	pending []int

	// Per-cycle TLB port accounting.
	portCycle clock.Global
	portUsed  []int

	// obs, if non-nil, receives structured probe events (TLB hit/miss,
	// MSHR alloc/free, walk start/end). Observation never alters
	// translation behavior.
	obs obs.Sink

	stats []CoreStats
}

// New builds an MMU. tables must hold one page table per core (they
// embody the cores' address spaces and physical allocators).
func New(cfg Config, backend Backend, tables []*PageTable, ids *mem.IDAllocator) (*MMU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tables) != cfg.Cores {
		return nil, fmt.Errorf("mmu: got %d page tables for %d cores", len(tables), cfg.Cores)
	}
	m := &MMU{
		cfg:       cfg,
		backend:   backend,
		ids:       ids,
		tables:    tables,
		mshr:      make([]map[uint64]*mshrEntry, cfg.Cores),
		issueQ:    make([]mem.Queue, cfg.Cores),
		portUsed:  make([]int, cfg.Cores),
		stalls:    make([]stall, cfg.Cores),
		blocked:   make([]bool, cfg.Cores),
		pending:   make([]int, cfg.Cores),
		portCycle: -1,
		stats:     make([]CoreStats, cfg.Cores),
	}
	for i := range m.mshr {
		m.mshr[i] = make(map[uint64]*mshrEntry)
	}
	if !cfg.Disabled {
		if cfg.SharedTLB {
			m.tlbs = []*TLB{NewTLB(cfg.TLBEntriesPerCore*cfg.Cores, cfg.TLBAssoc)}
		} else {
			m.tlbs = make([]*TLB, cfg.Cores)
			for i := range m.tlbs {
				m.tlbs[i] = NewTLB(cfg.TLBEntriesPerCore, cfg.TLBAssoc)
			}
		}
		if cfg.WalkerPolicy == DWSStealing {
			m.dws = newDWSPool(cfg.Cores, cfg.WalkersPerCore)
		} else {
			min, max := cfg.EffectiveWalkerBounds()
			m.pool = newWalkerPool(cfg.TotalWalkers(), min, max)
		}
	}
	return m, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config, backend Backend, tables []*PageTable, ids *mem.IDAllocator) *MMU {
	m, err := New(cfg, backend, tables, ids)
	if err != nil {
		panic(err)
	}
	return m
}

func (m *MMU) tlbFor(core int) *TLB {
	if m.cfg.SharedTLB {
		return m.tlbs[0]
	}
	return m.tlbs[core]
}

// TLBFor exposes the TLB serving core, for instrumentation.
func (m *MMU) TLBFor(core int) *TLB { return m.tlbFor(core) }

// SetObs attaches a probe-event sink; nil detaches it.
func (m *MMU) SetObs(s obs.Sink) { m.obs = s }

// Stats returns a snapshot of core's counters.
func (m *MMU) Stats(core int) CoreStats { return m.stats[core] }

// Submit accepts a virtually addressed Data request from core's DMA
// engine at the current global cycle. It returns false if the MMU
// cannot take the request this cycle (TLB ports exhausted or the
// pending-walk limit reached for a new page); the caller retries later.
//
//lint:allow wakecontract audited stimulus seam: under the event kernel every core submits through sim.wakeSubmitter, which re-arms the MMU at the next global cycle on success
func (m *MMU) Submit(now clock.Global, r *mem.Request) bool {
	core := r.Core
	if m.cfg.Disabled {
		r.Addr = m.tables[core].Translate(r.VAddr)
		m.issueQ[core].Push(r)
		m.stats[core].Translations++
		return true
	}
	if m.portCycle != now {
		m.portCycle = now
		for i := range m.portUsed {
			m.portUsed[i] = 0
		}
	}
	if m.portUsed[core] >= m.cfg.TLBPortsPerCycle {
		m.stats[core].PortStalls++
		return false
	}
	vpn := r.VAddr >> m.cfg.PageSize.Shift()
	if e, ok := m.mshr[core][vpn]; ok {
		// A walk for this page is already pending: coalesce.
		m.portUsed[core]++
		m.stats[core].Translations++
		m.stats[core].TLBMisses++
		m.stats[core].CoalescedMisses++
		e.waiters = append(e.waiters, r)
		if m.obs != nil {
			m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindTLBMiss, Core: int32(core), A: 1})
		}
		return true
	}
	if ppn, ok := m.tlbFor(core).Lookup(core, vpn); ok {
		m.portUsed[core]++
		m.stats[core].Translations++
		m.stats[core].TLBHits++
		r.Addr = ppn | (r.VAddr & (uint64(m.cfg.PageSize) - 1))
		m.issueQ[core].Push(r)
		if m.obs != nil {
			m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindTLBHit, Core: int32(core)})
		}
		return true
	}
	// Miss on a new page: need an MSHR slot and a queued walk.
	if len(m.mshr[core]) >= m.cfg.MaxPendingWalks {
		// The speculative Lookup above already counted a miss; undo
		// our acceptance by not consuming a port and reporting the
		// stall. The re-submitted request will probe again.
		m.stats[core].MSHRStalls++
		return false
	}
	m.portUsed[core]++
	m.stats[core].Translations++
	m.stats[core].TLBMisses++
	m.mshr[core][vpn] = &mshrEntry{waiters: []*mem.Request{r}}
	m.walkFIFO = append(m.walkFIFO, walkRequest{core: core, vpn: vpn, at: now})
	if m.obs != nil {
		m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindTLBMiss, Core: int32(core)})
		m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindMSHRAlloc, Core: int32(core), A: int64(len(m.mshr[core]))})
	}
	if invariant.Enabled {
		invariant.Check(len(m.mshr[core]) <= m.cfg.MaxPendingWalks,
			"mmu: MSHR leak: core %d holds %d entries, limit %d", core, len(m.mshr[core]), m.cfg.MaxPendingWalks)
	}
	return true
}

// Tick advances the MMU by one global cycle: dispatch queued walks to
// free walkers, progress active walks, and drain translated requests
// into the backend.
func (m *MMU) Tick(now clock.Global) {
	if !m.cfg.Disabled {
		m.dispatchWalks(now)
		m.progressWalks(now)
	}
	m.drainIssueQueues(now)
}

// dispatchWalks grants walkers to queued walks in arrival order,
// skipping cores that cannot take a walker right now (they keep their
// queue position).
func (m *MMU) dispatchWalks(now clock.Global) {
	if len(m.walkFIFO) == 0 {
		return
	}
	// Pending walk counts per core, consumed by the DWS policy's
	// "owner has no queued walks" condition.
	var pending []int
	if m.dws != nil {
		pending = m.pending
		clear(pending)
		for _, wr := range m.walkFIFO {
			pending[wr.core]++
		}
	}
	remaining := m.walkFIFO[:0]
	for i, wr := range m.walkFIFO {
		if m.freeWalkers() == 0 {
			remaining = append(remaining, m.walkFIFO[i:]...)
			break
		}
		owner := wr.core
		if m.dws != nil {
			pending[wr.core]--
			o, ok := m.dws.grab(wr.core, pending)
			if !ok {
				pending[wr.core]++
				remaining = append(remaining, wr)
				continue
			}
			owner = o
		} else {
			if !m.pool.canGrab(wr.core) {
				remaining = append(remaining, wr)
				continue
			}
			m.pool.grab(wr.core)
		}
		ppn, ptes := m.tables[wr.core].Walk(wr.vpn)
		job := &walkJob{core: wr.core, vpn: wr.vpn, ppn: ppn, pteAddrs: ptes, startedAt: now, owner: owner}
		if m.cfg.WalkMemory == FixedWalkLatency {
			job.readyAt = now + clock.Global(len(ptes))*m.cfg.EffectiveWalkLatency()
		}
		m.active = append(m.active, job)
		if m.obs != nil {
			m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindWalkStart, Core: int32(wr.core), A: int64(wr.vpn), B: int64(owner)})
		}
	}
	m.walkFIFO = remaining
}

func (m *MMU) freeWalkers() int {
	if m.dws != nil {
		return m.dws.Free()
	}
	return m.pool.Free()
}

// progressWalks advances every active walk: under FixedWalkLatency it
// completes walks whose deadline has passed; under DRAMBackedWalks it
// issues the next dependent PTE read for every walker that is not
// waiting on DRAM.
func (m *MMU) progressWalks(now clock.Global) {
	out := m.active[:0]
	for _, job := range m.active {
		if m.cfg.WalkMemory == FixedWalkLatency {
			if now >= job.readyAt {
				m.completeWalk(now, job)
			} else {
				out = append(out, job)
			}
			continue
		}
		if job.waiting {
			out = append(out, job)
			continue
		}
		if job.level >= len(job.pteAddrs) {
			m.completeWalk(now, job)
			continue
		}
		addr := job.pteAddrs[job.level]
		if !m.backend.CanAccept(job.core, addr) {
			out = append(out, job)
			continue
		}
		j := job
		req := &mem.Request{
			ID:    m.ids.Next(),
			Core:  job.core,
			Addr:  addr,
			VAddr: job.vpn << m.cfg.PageSize.Shift(),
			Size:  8,
			Kind:  mem.Read,
			Class: mem.PageTable,
			Done: func(clock.Global, *mem.Request) {
				j.waiting = false
				j.level++
			},
		}
		if m.backend.Enqueue(now, req) {
			job.waiting = true
		}
		out = append(out, job)
	}
	m.active = out
}

func (m *MMU) completeWalk(now clock.Global, job *walkJob) {
	lat := (now - job.startedAt).Int64()
	st := &m.stats[job.core]
	st.Walks++
	st.WalkCycles += lat
	if lat > st.MaxWalkCycles {
		st.MaxWalkCycles = lat
	}
	m.tlbFor(job.core).Insert(job.core, job.vpn, job.ppn)
	if m.dws != nil {
		m.dws.release(job.owner)
	} else {
		m.pool.release(job.core)
	}
	e, ok := m.mshr[job.core][job.vpn]
	if invariant.Enabled {
		// A completed walk without an MSHR entry means the entry was
		// freed twice or the walk was dispatched without one (leak on
		// the other side); its waiters would hang forever.
		invariant.Check(ok, "mmu: walk completed with no MSHR entry (double free?) core=%d vpn=%#x", job.core, job.vpn)
		invariant.Check(!ok || len(e.waiters) > 0,
			"mmu: MSHR entry with no waiters core=%d vpn=%#x", job.core, job.vpn)
	}
	if ok {
		for _, r := range e.waiters {
			r.Addr = job.ppn | (r.VAddr & (uint64(m.cfg.PageSize) - 1))
			m.issueQ[job.core].Push(r)
		}
		delete(m.mshr[job.core], job.vpn)
	}
	if m.obs != nil {
		m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindWalkEnd, Core: int32(job.core), A: int64(job.vpn), B: lat})
		m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindMSHRFree, Core: int32(job.core), A: int64(len(m.mshr[job.core]))})
	}
}

// drainWindow bounds how far into a core's issue queue the drain looks
// for a request whose channel has space. After address decode, requests
// to different channels are independent, so one full channel must not
// block admission to the others (head-of-line blocking would
// systematically penalize shared-channel configurations, whose queue
// occupancies are burstier).
const drainWindow = 32

// drainIssueQueues forwards translated requests to the backend,
// round-robin across cores, while the backend accepts them. The
// rotation pointer advances per *grant*, not per cycle: when the memory
// system frees exactly one slot every k cycles and k is a multiple of
// the core count, per-cycle rotation would hand every slot to the same
// core forever (a parity lock a deterministic simulator cannot escape).
func (m *MMU) drainIssueQueues(now clock.Global) {
	n := m.cfg.Cores
	blocked := m.blocked
	clear(blocked)
	for {
		granted := false
		for i := 0; i < n; i++ {
			core := (m.rrNext + i) % n
			if blocked[core] || m.issueQ[core].Empty() {
				continue
			}
			if m.drainOne(now, core) {
				m.rrNext = (core + 1) % n
				granted = true
				break
			}
			blocked[core] = true
		}
		if !granted {
			return
		}
	}
}

// stall summarises the head of a core's issue queue that the drain has
// offered and the backend refused: entries [0, n), each with a known
// channel. chans lists their distinct channels, each with the index of
// its oldest entry, in index order. The summary records which channel
// each entry waits on, never whether that channel is still full, so it
// stays valid until an entry is removed from the queue.
type stall struct {
	n     int
	chans []waitChan
}

// waitChan is a channel and the queue index of its oldest waiting entry.
type waitChan struct {
	ch, idx int
}

// drainOne admits the oldest admissible request (within drainWindow) of
// core's issue queue into the backend. Among the refused entries [0, n)
// only each channel's oldest can be the first admissible one, so it
// re-offers those, in index order and skipping channels that already
// refused this cycle, then offers the entries after n in order. It
// admits the same request as offering every window entry in order.
func (m *MMU) drainOne(now clock.Global, core int) bool {
	q := &m.issueQ[core]
	s := &m.stalls[core]
	if invariant.Enabled {
		m.checkStall(core)
	}
	for k, w := range s.chans {
		if m.refusedThisCycle(w.ch, now) {
			continue
		}
		if m.backend.Enqueue(now, q.At(w.idx)) {
			m.removeWaiter(core, k)
			return true
		}
		m.markRefused(w.ch, now)
	}
	grouped := true
	for i, limit := s.n, min(q.Len(), drainWindow); i < limit; i++ {
		r := q.At(i)
		ch := int(r.DRAMChannel) - 1
		if ch < 0 || !m.refusedThisCycle(ch, now) {
			if m.backend.Enqueue(now, r) {
				q.RemoveAt(i) // i is at or past n: the summary is unchanged
				return true
			}
			if ch = int(r.DRAMChannel) - 1; ch >= 0 {
				m.markRefused(ch, now)
			}
		}
		// A refusal without a channel ends the summary: that entry and
		// every later one are offered again on each pass.
		if grouped = grouped && ch >= 0; grouped {
			s.add(ch, i)
		}
	}
	return false
}

func (m *MMU) refusedThisCycle(ch int, now clock.Global) bool {
	return ch < len(m.refusedAt) && m.refusedAt[ch] == now
}

func (m *MMU) markRefused(ch int, now clock.Global) {
	for ch >= len(m.refusedAt) {
		m.refusedAt = append(m.refusedAt, -1)
	}
	m.refusedAt[ch] = now
}

// add extends the summary by entry i, refused on channel ch.
func (s *stall) add(ch, i int) {
	s.n = i + 1
	for _, w := range s.chans {
		if w.ch == ch {
			return
		}
	}
	s.chans = append(s.chans, waitChan{ch: ch, idx: i})
}

// removeWaiter removes the oldest waiter of s.chans[k], just admitted,
// from core's issue queue and repairs the summary: later entries move
// down one index, and the channel's next-oldest entry, if any, takes
// its place.
func (m *MMU) removeWaiter(core, k int) {
	q := &m.issueQ[core]
	s := &m.stalls[core]
	w := s.chans[k]
	q.RemoveAt(w.idx)
	s.n--
	s.chans = slices.Delete(s.chans, k, k+1)
	for j := k; j < len(s.chans); j++ {
		s.chans[j].idx--
	}
	for i := w.idx; i < s.n; i++ {
		if int(q.At(i).DRAMChannel)-1 == w.ch {
			at := k
			for at < len(s.chans) && s.chans[at].idx < i {
				at++
			}
			s.chans = slices.Insert(s.chans, at, waitChan{ch: w.ch, idx: i})
			return
		}
	}
}

// checkStall verifies core's stall summary against its issue queue.
func (m *MMU) checkStall(core int) {
	q := &m.issueQ[core]
	s := &m.stalls[core]
	invariant.Check(s.n <= min(q.Len(), drainWindow),
		"mmu: core %d stall summary covers %d entries of a %d-entry window", core, s.n, min(q.Len(), drainWindow))
	for k, w := range s.chans {
		invariant.Check(k == 0 || s.chans[k-1].idx < w.idx,
			"mmu: core %d waiting channels out of index order: %v", core, s.chans)
		invariant.Check(w.idx < s.n && int(q.At(w.idx).DRAMChannel)-1 == w.ch,
			"mmu: core %d waiting channel %d names entry %d, not one of its requests", core, w.ch, w.idx)
		for _, v := range s.chans[:k] {
			invariant.Check(v.ch != w.ch, "mmu: core %d lists channel %d twice: %v", core, w.ch, s.chans)
		}
	}
	for i := 0; i < s.n; i++ {
		ch := int(q.At(i).DRAMChannel) - 1
		if ch < 0 {
			continue
		}
		k := slices.IndexFunc(s.chans, func(w waitChan) bool { return w.ch == ch })
		invariant.Check(k >= 0 && s.chans[k].idx <= i,
			"mmu: core %d entry %d waits on channel %d, missing from %v", core, i, ch, s.chans)
	}
}

// NextEventAfter returns the earliest global cycle at which the MMU
// needs ticking. Queued walks, translated requests awaiting DRAM
// admission, and DRAM-backed walks between PTE reads all progress
// cycle-by-cycle (now+1); fixed-latency walks sleep until their
// deadline; walks waiting on a DRAM PTE read are woken by the memory
// completion, which the DRAM's own NextEventAfter bounds.
func (m *MMU) NextEventAfter(now clock.Global) clock.Global {
	if len(m.walkFIFO) > 0 {
		return now + 1
	}
	for i := range m.issueQ {
		if !m.issueQ[i].Empty() {
			return now + 1
		}
	}
	var next clock.Global = clock.FarFuture
	for _, job := range m.active {
		if m.cfg.WalkMemory == FixedWalkLatency {
			if job.readyAt <= now {
				return now + 1
			}
			if job.readyAt < next {
				next = job.readyAt
			}
			continue
		}
		if !job.waiting {
			return now + 1
		}
	}
	return next
}

// SkipTo is a no-op: the MMU keeps no cycle-decaying state. Port
// accounting is keyed to the absolute cycle of the first Submit, and
// every deadline (walk readyAt) is absolute. It exists to complete the
// NextEventAfter/SkipTo fast-forward protocol.
func (m *MMU) SkipTo(now clock.Global) {}

// Busy reports whether the MMU holds any pending work.
func (m *MMU) Busy() bool {
	if len(m.walkFIFO) > 0 || len(m.active) > 0 {
		return true
	}
	for i := range m.issueQ {
		if !m.issueQ[i].Empty() {
			return true
		}
	}
	return false
}

// PendingWalks returns the number of distinct outstanding walks for
// core (queued or active).
func (m *MMU) PendingWalks(core int) int { return len(m.mshr[core]) }

// WalkersInUse returns how many walkers core currently occupies. Under
// DWS stealing the notion is per-owner, so it reports the core's home
// walkers in use.
func (m *MMU) WalkersInUse(core int) int {
	if m.cfg.Disabled {
		return 0
	}
	if m.dws != nil {
		return m.cfg.WalkersPerCore - m.dws.freeHome[core]
	}
	return m.pool.InUse(core)
}
