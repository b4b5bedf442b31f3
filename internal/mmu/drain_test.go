package mmu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/invariant"
	"mnpusim/internal/mem"
)

// admission is one request the backend admitted.
type admission struct {
	at clock.Global
	id uint64
}

// chanBackend is a seeded random memory: requests map to channels by
// address, each channel queues at most depth of them, and on every tick
// each channel completes its oldest request with a per-channel
// probability. Like dram.Memory it names the channel of every request it
// refuses.
type chanBackend struct {
	depth    int
	freeOdds []int // channel ch frees a slot with probability 1/freeOdds[ch]
	queues   [][]*mem.Request
	rng      *rand.Rand

	admits   []admission
	attempts int
}

func newChanBackend(seed int64, channels, depth int) *chanBackend {
	b := &chanBackend{depth: depth, queues: make([][]*mem.Request, channels), rng: rand.New(rand.NewSource(seed))}
	for range channels {
		b.freeOdds = append(b.freeOdds, 1+b.rng.Intn(4))
	}
	return b
}

func (b *chanBackend) channelOf(addr uint64) int { return int(addr>>6) % len(b.queues) }

func (b *chanBackend) CanAccept(core int, addr uint64) bool {
	return len(b.queues[b.channelOf(addr)]) < b.depth
}

func (b *chanBackend) Enqueue(now clock.Global, r *mem.Request) bool {
	b.attempts++
	ch := b.channelOf(r.Addr)
	r.DRAMChannel = int32(ch) + 1
	if len(b.queues[ch]) >= b.depth {
		return false
	}
	b.queues[ch] = append(b.queues[ch], r)
	b.admits = append(b.admits, admission{now, r.ID})
	return true
}

func (b *chanBackend) tick(now clock.Global) {
	for ch, q := range b.queues {
		if b.rng.Intn(b.freeOdds[ch]) == 0 && len(q) > 0 {
			b.queues[ch] = q[1:]
			q[0].Complete(now)
		}
	}
}

// refTick is Tick with the drain that offers every window entry in
// order on each pass, the definition the stall summary must reproduce.
func refTick(m *MMU, now clock.Global) {
	if !m.cfg.Disabled {
		m.dispatchWalks(now)
		m.progressWalks(now)
	}
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
			if refDrainOne(m, now, core) {
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

func refDrainOne(m *MMU, now clock.Global, core int) bool {
	q := &m.issueQ[core]
	limit := min(q.Len(), drainWindow)
	for i := 0; i < limit; i++ {
		if m.backend.Enqueue(now, q.At(i)) {
			q.RemoveAt(i)
			return true
		}
	}
	return false
}

// runDrain drives a seeded random request stream through an MMU over a
// chanBackend, in the simulator's within-cycle order (memory, MMU, then
// the cores' submissions), and returns the backend.
func runDrain(t *testing.T, cores int, disabled bool, seed int64, ref bool) *chanBackend {
	t.Helper()
	cfg := testMMUConfig(cores)
	cfg.Disabled = disabled
	cfg.WalkMemory = DRAMBackedWalks // page-table reads compete for the channels
	b := newChanBackend(seed, 4, 3)
	m := newTestMMU(t, cfg, b)
	rng := rand.New(rand.NewSource(seed))
	ids := &mem.IDAllocator{}
	next := make([]*mem.Request, cores)
	for now := clock.Global(0); now < 4000; now++ {
		b.tick(now)
		if ref {
			refTick(m, now)
		} else {
			m.Tick(now)
		}
		for core := range next {
			for range rng.Intn(3) {
				if next[core] == nil {
					va := uint64(rng.Intn(16))<<12 | uint64(rng.Intn(64))<<6
					next[core] = &mem.Request{ID: ids.Next(), Core: core, VAddr: va, Size: 64, Kind: mem.Read}
				}
				if !m.Submit(now, next[core]) {
					break
				}
				next[core] = nil
			}
		}
	}
	return b
}

// TestDrainMatchesFullScan checks that the stall-summary drain admits
// exactly the requests, in exactly the cycles, that offering every
// window entry in order admits, over a random backend whose channels
// fill and free at random.
func TestDrainMatchesFullScan(t *testing.T) {
	for _, cores := range []int{2, 4} {
		for _, disabled := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("cores=%d/disabled=%v/seed=%d", cores, disabled, seed), func(t *testing.T) {
					want := runDrain(t, cores, disabled, seed, true)
					got := runDrain(t, cores, disabled, seed, false)
					if len(want.admits) < 1000 {
						t.Fatalf("only %d admissions: the stream does not load the backend", len(want.admits))
					}
					if i := firstDiff(want.admits, got.admits); i >= 0 {
						t.Fatalf("admission %d differs: full scan %v, stall summary %v (of %d vs %d)",
							i, at(want.admits, i), at(got.admits, i), len(want.admits), len(got.admits))
					}
					if got.attempts*2 > want.attempts {
						t.Errorf("stall summary made %d admission attempts, full scan %d: want at most half", got.attempts, want.attempts)
					}
				})
			}
		}
	}
}

func firstDiff(a, b []admission) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(s []admission, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "none"
}

// TestStallSummaryCorruptionTrips checks that, with -tags=invariants,
// drainOne refuses a summary that has lost a waiting channel.
func TestStallSummaryCorruptionTrips(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("needs -tags=invariants")
	}
	cfg := testMMUConfig(1)
	cfg.Disabled = true
	b := newChanBackend(1, 4, 0) // every channel refuses
	m := newTestMMU(t, cfg, b)
	for i := range 8 {
		m.Submit(0, dataReq(0, uint64(i)<<6, nil))
	}
	m.Tick(0)
	s := &m.stalls[0]
	if s.n != 8 || len(s.chans) != 4 {
		t.Fatalf("summary covers %d entries on %d channels, want 8 on 4", s.n, len(s.chans))
	}
	s.chans = slices.Delete(s.chans, 1, 2)
	defer func() {
		if recover() == nil {
			t.Error("summary missing a channel accepted")
		}
	}()
	m.Tick(1)
}
