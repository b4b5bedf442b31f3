package main

import (
	"context"
	"fmt"
	"time"

	"mnpusim/internal/clock"
	"mnpusim/internal/dram"
	"mnpusim/internal/mem"
	"mnpusim/internal/mmu"
	"mnpusim/internal/sim"
)

// The layer replay splits MMU time from DRAM-admission time, which no
// measurement of a whole simulation can: MMU.Tick drains translated
// requests by calling Memory.Enqueue from inside itself. The replay
// records a configuration's DMA issue stream, re-drives it through an
// MMU and a DRAM device assembled from the configuration's public
// fields, and puts a timing mmu.Backend between the two.

// issued is one recorded DMA request and the cycle it was issued at.
type issued struct {
	at  clock.Global
	req mem.Request
}

// record simulates cfg and returns its result and DMA issue stream,
// each request copied as the core handed it to the MMU (virtual address
// only).
func record(cfg sim.Config) (sim.Result, []issued, error) {
	var stream []issued
	cfg.OnIssue = func(now clock.Global, r *mem.Request) {
		c := *r
		c.Addr, c.Done = 0, nil
		stream = append(stream, issued{at: now, req: c})
	}
	res, err := sim.RunContext(context.Background(), cfg)
	return res, stream, err
}

// timedBackend is the benchmark's mmu.Backend: it forwards to the DRAM
// device and times and counts every admission call.
type timedBackend struct {
	mem       *dram.Memory
	ns        int64 // host time inside CanAccept and Enqueue
	attempts  int64 // Enqueue calls
	accepted  int64 // Enqueue calls that admitted the request
	walkReads int64 // accepted page-table reads
	walkDone  int64 // completed page-table reads
}

func (b *timedBackend) CanAccept(core int, addr uint64) bool {
	t := time.Now()
	ok := b.mem.CanAccept(core, addr)
	b.ns += int64(time.Since(t))
	return ok
}

func (b *timedBackend) Enqueue(now clock.Global, r *mem.Request) bool {
	t := time.Now()
	ok := b.mem.Enqueue(now, r)
	b.ns += int64(time.Since(t))
	b.attempts++
	if ok {
		b.accepted++
		if r.Class == mem.PageTable {
			b.walkReads++
			inner := r.Done
			r.Done = func(done clock.Global, rr *mem.Request) {
				b.walkDone++
				inner(done, rr)
			}
		}
	}
	return ok
}

// replayStats are the replay's per-layer host times and counts.
type replayStats struct {
	requests   int64
	cycles     int64
	submitNS   int64 // MMU.Submit
	mmuSelfNS  int64 // MMU.Tick minus the nested backend time
	admitNS    int64 // Memory.Enqueue (and CanAccept)
	attempts   int64
	accepted   int64
	scheduleNS int64 // Memory.Tick
	walkReads  int64
}

// replay re-drives stream through a fresh MMU and DRAM built from cfg,
// in the simulator's within-cycle order (channels, MMU, then the cores'
// submissions). A request is submitted no earlier than its recorded
// cycle and retried on the next cycle while the MMU refuses it. It
// checks that every request completes exactly once and that admissions
// equal requests plus page-table reads.
func replay(cfg sim.Config, stream []issued) (replayStats, error) {
	n := cfg.Cores()
	memory, err := dram.New(cfg.DRAM)
	if err != nil {
		return replayStats{}, err
	}
	for i, set := range channelSets(cfg) {
		if err := memory.SetCoreChannels(i, set); err != nil {
			return replayStats{}, err
		}
	}
	tables := make([]*mmu.PageTable, n)
	for i := range tables {
		alloc := mmu.NewPhysAllocator(uint64(i)*cfg.PhysBytesPerCore, cfg.PhysBytesPerCore, cfg.PageSize)
		tables[i] = mmu.NewPageTable(cfg.PageSize, cfg.WalkLevels, alloc)
	}
	be := &timedBackend{mem: memory}
	unit, err := mmu.New(mmuConfig(cfg), be, tables, &mem.IDAllocator{})
	if err != nil {
		return replayStats{}, err
	}

	reqs := make([]mem.Request, len(stream))
	doneCount := make([]int, len(stream))
	queues := make([][]int, n)
	var completed int
	for i := range stream {
		reqs[i] = stream[i].req
		reqs[i].Done = func(clock.Global, *mem.Request) {
			doneCount[i]++
			completed++
		}
		c := reqs[i].Core
		if c < 0 || c >= n {
			return replayStats{}, fmt.Errorf("replay: request from core %d of %d", c, n)
		}
		queues[c] = append(queues[c], i)
	}
	heads := make([]int, n)

	var st replayStats
	var now clock.Global
	for completed < len(stream) {
		if now > cfg.MaxGlobalCycles {
			return replayStats{}, fmt.Errorf("replay: %d of %d requests still open at cycle %d", len(stream)-completed, len(stream), now)
		}
		t := time.Now()
		memory.Tick(now)
		st.scheduleNS += int64(time.Since(t))

		nested := be.ns
		t = time.Now()
		unit.Tick(now)
		st.mmuSelfNS += int64(time.Since(t)) - (be.ns - nested)

		next := memory.NextEventAfter(now)
		if e := unit.NextEventAfter(now); e < next {
			next = e
		}
		for c := range queues {
			for heads[c] < len(queues[c]) {
				i := queues[c][heads[c]]
				if stream[i].at > now {
					next = min(next, stream[i].at)
					break
				}
				t = time.Now()
				ok := unit.Submit(now, &reqs[i])
				st.submitNS += int64(time.Since(t))
				if !ok {
					next = now + 1
					break
				}
				heads[c]++
			}
		}
		// A submission arms the MMU for the next cycle.
		if e := unit.NextEventAfter(now); e < next {
			next = e
		}
		if next <= now {
			next = now + 1
		}
		now = next
	}

	for i, d := range doneCount {
		if d != 1 {
			return replayStats{}, fmt.Errorf("replay: request %d completed %d times", i, d)
		}
	}
	if be.walkDone != be.walkReads {
		return replayStats{}, fmt.Errorf("replay: %d page-table reads admitted, %d completed", be.walkReads, be.walkDone)
	}
	if be.accepted != int64(len(stream))+be.walkReads {
		return replayStats{}, fmt.Errorf("replay: %d admissions for %d requests and %d page-table reads", be.accepted, len(stream), be.walkReads)
	}
	st.requests = int64(len(stream))
	st.cycles = now.Int64()
	st.admitNS = be.ns
	st.attempts = be.attempts
	st.accepted = be.accepted
	st.walkReads = be.walkReads
	return st, nil
}

// channelSets mirrors the simulator's per-core channel routing.
func channelSets(c sim.Config) [][]int {
	n := c.Cores()
	if c.ChannelPartition != nil {
		return c.ChannelPartition
	}
	sets := make([][]int, n)
	if c.Sharing.SharesDRAM() {
		all := make([]int, c.DRAM.Channels)
		for i := range all {
			all[i] = i
		}
		for i := range sets {
			sets[i] = all
		}
		return sets
	}
	per := c.DRAM.Channels / n
	for i := range sets {
		for j := 0; j < per; j++ {
			sets[i] = append(sets[i], i*per+j)
		}
	}
	return sets
}

// mmuConfig mirrors the simulator's MMU configuration for c.
func mmuConfig(c sim.Config) mmu.Config {
	walkMem := mmu.FixedWalkLatency
	if c.DRAMBackedWalks {
		walkMem = mmu.DRAMBackedWalks
	}
	policy := mmu.PoolBounds
	if c.DWSWalkerStealing {
		policy = mmu.DWSStealing
	}
	return mmu.Config{
		Cores:               c.Cores(),
		PageSize:            c.PageSize,
		WalkLevels:          c.WalkLevels,
		TLBEntriesPerCore:   c.TLBEntriesPerCore,
		TLBAssoc:            c.TLBAssoc,
		SharedTLB:           c.Sharing.SharesTLB(),
		WalkersPerCore:      c.PTWPerCore,
		WalkLatencyPerLevel: c.WalkLatencyPerLevel,
		WalkMemory:          walkMem,
		SharedPTW:           c.Sharing.SharesPTW(),
		WalkerMin:           c.WalkerMin,
		WalkerMax:           c.WalkerMax,
		WalkerPolicy:        policy,
		TLBPortsPerCycle:    c.TLBPorts,
		MaxPendingWalks:     c.MaxPendingWalks,
		Disabled:            c.NoTranslation,
	}
}
