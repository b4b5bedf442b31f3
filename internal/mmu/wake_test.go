package mmu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
)

// issueEvent is one translated request arriving at the backend.
type issueEvent struct {
	Cycle clock.Global
	Core  int
	VAddr uint64
	Addr  uint64
}

// recordingBackend always accepts and logs every drained request; the
// MMU's externally observable behaviour is exactly this stream.
type recordingBackend struct {
	events []issueEvent
}

func (b *recordingBackend) CanAccept(core int, addr uint64) bool { return true }

func (b *recordingBackend) Enqueue(now clock.Global, r *mem.Request) bool {
	b.events = append(b.events, issueEvent{Cycle: now, Core: r.Core, VAddr: r.VAddr, Addr: r.Addr})
	return true
}

// TestMMUWakeContract is the mmu half of the event kernel's wake
// contract: after Tick(now), the MMU's observable state must not change
// before its reported NextEventAfter(now) unless a Submit lands first.
// Two identical MMUs replay one seeded random submit stream — the
// reference ticks every cycle, the other ticks only at its armed wake
// cycle (re-armed to now+1 by each successful Submit, exactly as the
// kernel's wakeSubmitter does). A state change the contract failed to
// announce makes the backend issue streams or final stats diverge. The
// mshr subtests add walker and MSHR back-pressure (testMSHRBackPressure).
func TestMMUWakeContract(t *testing.T) {
	const cores = 2
	for _, seed := range []int64{3, 11, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := testMMUConfig(cores)
			var refBack, wakeBack recordingBackend
			ref := newTestMMU(t, cfg, &refBack)
			wake := newTestMMU(t, cfg, &wakeBack)

			const far = clock.Global(clock.FarFuture)
			armed := clock.Global(0)

			const cycles = 30_000
			for now := clock.Global(0); now < cycles || ref.Busy() || wake.Busy(); now++ {
				if now > 10*cycles {
					t.Fatalf("no drain by cycle %d", now)
				}
				ref.Tick(now)
				if armed <= now {
					wake.Tick(now)
					next := wake.NextEventAfter(now)
					if next <= now {
						t.Fatalf("cycle %d: horizon %d not in the future", now, next)
					}
					armed = min(next, far)
				}
				// Submits land after the cycle's ticks, as the cores' do
				// in the simulator; a success at now means the MMU can
				// change state at now+1, so it re-arms there. A refusal
				// is dropped on both sides — acceptance parity keeps the
				// twins in lockstep.
				if now < cycles && rng.Intn(5) == 0 {
					n := 1 + rng.Intn(3)
					for i := 0; i < n; i++ {
						core := rng.Intn(cores)
						// A small page pool drives TLB hits, misses, and
						// coalesced walks; the offset varies freely.
						va := uint64(rng.Intn(48))<<12 | uint64(rng.Intn(64))*64
						mk := func() *mem.Request {
							return &mem.Request{Core: core, VAddr: va, Size: 64, Kind: mem.Read, Class: mem.Data}
						}
						okRef := ref.Submit(now, mk())
						okWake := wake.Submit(now, mk())
						if okRef != okWake {
							t.Fatalf("cycle %d: submit acceptance diverged (ref=%v wake=%v)", now, okRef, okWake)
						}
						if okRef && now+1 < armed {
							armed = now + 1
						}
					}
				}
			}

			if !reflect.DeepEqual(refBack.events, wakeBack.events) {
				t.Fatalf("issue streams diverged: ref=%d events wake=%d events", len(refBack.events), len(wakeBack.events))
			}
			for c := 0; c < cores; c++ {
				if ref.Stats(c) != wake.Stats(c) {
					t.Errorf("core %d stats diverged:\nref:  %+v\nwake: %+v", c, ref.Stats(c), wake.Stats(c))
				}
			}
		})
	}
	testMSHRBackPressure(t)
}

// testMSHRBackPressure extends the wake contract to walker and MSHR
// back-pressure. MaxPendingWalks exceeds the walker
// count, so walks queue for walkers and the MMU sleeps on a non-empty
// walk queue until a completion releases one; a page-hungry submit
// stream keeps each core at its MSHR limit. Each twin feeds every
// core's requests in order and stops at the first refusal. The
// reference resubmits a refused request on every cycle. The wake twin
// parks a core refused for a full MSHR until OnMSHRFree wakes it, then
// credits the resubmissions it skipped and resubmits on the same cycle,
// as sim's cores do. Issue streams, every CoreStats field and the TLB
// hit and miss counts must match.
func testMSHRBackPressure(t *testing.T) {
	const cores = 2
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"static", func(*Config) {}},
		{"shared-ptw", func(c *Config) { c.SharedPTW = true }},
		{"shared-tlb", func(c *Config) { c.SharedPTW, c.SharedTLB = true, true }},
		{"dws", func(c *Config) { c.WalkerPolicy = DWSStealing }},
	} {
		for _, seed := range []int64{3, 11} {
			t.Run(fmt.Sprintf("mshr/%s/seed=%d", tc.name, seed), func(t *testing.T) {
				cfg := testMMUConfig(cores)
				tc.mut(&cfg)
				if cfg.MaxPendingWalks <= cfg.WalkersPerCore {
					t.Fatalf("config must let walks queue for walkers: %d MSHRs, %d walkers per core", cfg.MaxPendingWalks, cfg.WalkersPerCore)
				}
				var refBack, wakeBack recordingBackend
				ref := newTestMMU(t, cfg, &refBack)
				wake := newTestMMU(t, cfg, &wakeBack)

				const far = clock.Global(clock.FarFuture)
				armed := clock.Global(0)
				parkedAt := []clock.Global{-1, -1}
				var credited, wakeTicks int64
				wake.OnMSHRFree = func(now clock.Global, core int) {
					if parkedAt[core] < 0 {
						t.Fatalf("cycle %d: MSHR wake for core %d, which is not parked", now, core)
					}
					n := int64(now - 1 - parkedAt[core])
					wake.CreditMSHRStalls(core, n)
					credited += n
					parkedAt[core] = -1
				}

				rng := rand.New(rand.NewSource(seed))
				var queues [cores][]*mem.Request
				refHead, wakeHead := [cores]int{}, [cores]int{}
				// submit feeds core's queue from *head, at most two per
				// cycle, stopping at the first refusal.
				submit := func(m *MMU, now clock.Global, core int, head *int) (ok bool) {
					for k := 0; k < 2 && *head < len(queues[core]); k++ {
						r := *queues[core][*head]
						if !m.Submit(now, &r) {
							return false
						}
						*head++
					}
					return true
				}
				const cycles = 10_000
				pending := func() bool {
					for c := range queues {
						if refHead[c] < len(queues[c]) || wakeHead[c] < len(queues[c]) {
							return true
						}
					}
					return false
				}
				for now := clock.Global(0); now < cycles || pending() || ref.Busy() || wake.Busy(); now++ {
					if now > 20*cycles {
						t.Fatalf("no drain by cycle %d", now)
					}
					ref.Tick(now)
					if armed <= now {
						wake.Tick(now)
						wakeTicks++
						next := wake.NextEventAfter(now)
						if next <= now {
							t.Fatalf("cycle %d: horizon %d not in the future", now, next)
						}
						armed = min(next, far)
					}
					for core := 0; core < cores && now < cycles; core++ {
						// Independent bursts over a wide page pool: mostly
						// misses to new pages, some coalesced, a few TLB
						// hits. Core 0 is busier, so core 1's walks often
						// queue behind core 0's in the same cycle: the case
						// where a DWS grant frees a walker for core 0 to
						// steal on the next pass.
						if rng.Intn(8<<core) != 0 {
							continue
						}
						base := uint64(rng.Intn(512))
						for i := 0; i < 1+rng.Intn(6); i++ {
							va := (base+uint64(rng.Intn(4)))<<12 | uint64(rng.Intn(64))*64
							queues[core] = append(queues[core], &mem.Request{Core: core, VAddr: va, Size: 64, Kind: mem.Read, Class: mem.Data})
						}
					}
					for core := 0; core < cores; core++ {
						submit(ref, now, core, &refHead[core])
						if parkedAt[core] >= 0 {
							continue
						}
						before := wakeHead[core]
						if !submit(wake, now, core, &wakeHead[core]) && wake.MSHRBlocked(core) {
							parkedAt[core] = now
						}
						if wakeHead[core] > before {
							armed = min(armed, wake.NextEventAfter(now))
						}
					}
				}

				if !reflect.DeepEqual(refBack.events, wakeBack.events) {
					t.Fatalf("issue streams diverged: ref=%d events wake=%d events", len(refBack.events), len(wakeBack.events))
				}
				var stalls int64
				for c := 0; c < cores; c++ {
					if ref.Stats(c) != wake.Stats(c) {
						t.Errorf("core %d stats diverged:\nref:  %+v\nwake: %+v", c, ref.Stats(c), wake.Stats(c))
					}
					rt, wt := ref.TLBFor(c), wake.TLBFor(c)
					if rt.Hits() != wt.Hits() || rt.Misses() != wt.Misses() {
						t.Errorf("core %d TLB counts diverged: ref %d hits %d misses, wake %d hits %d misses",
							c, rt.Hits(), rt.Misses(), wt.Hits(), wt.Misses())
					}
					stalls += ref.Stats(c).MSHRStalls
				}
				if stalls == 0 || credited == 0 {
					t.Errorf("stream never parked a core on a full MSHR: %d stalls, %d credited", stalls, credited)
				}
				t.Logf("%d MSHR stalls, %d credited; wake twin ticked %d times", stalls, credited, wakeTicks)
			})
		}
	}
}

// TestDWSDispatchRepassAfterGrant pins the one case in which a walk
// dispatch pass leaves a grant for the next pass with no event in
// between. Under DWSStealing a core may steal only from an owner with no
// queued walks; granting the owner's own walk empties its queue, so a
// walk passed over earlier in the same pass can steal on the next one.
func TestDWSDispatchRepassAfterGrant(t *testing.T) {
	cfg := testMMUConfig(2)
	cfg.WalkerPolicy = DWSStealing
	m := newTestMMU(t, cfg, &recordingBackend{})
	submit := func(now clock.Global, core int, page uint64) {
		t.Helper()
		if !m.Submit(now, &mem.Request{Core: core, VAddr: page << 12, Size: 64, Kind: mem.Read, Class: mem.Data}) {
			t.Fatalf("cycle %d: core %d page %d refused", now, core, page)
		}
	}
	submit(0, 0, 1)
	submit(0, 0, 2)
	m.Tick(1) // core 0 takes both of its walkers
	submit(1, 0, 3)
	submit(1, 1, 9)
	m.Tick(2) // core 1's walk takes one of its walkers; core 0's may not steal yet
	if got := m.WalkersInUse(1); got != 1 {
		t.Fatalf("after the first pass core 1 has %d walkers in use, want 1", got)
	}
	if next := m.NextEventAfter(2); next != 3 {
		t.Fatalf("NextEventAfter(2) = %d, want 3: core 0's queued walk can now steal", next)
	}
	m.Tick(3)
	if got := m.WalkersInUse(1); got != 2 {
		t.Fatalf("after the second pass core 1 has %d walkers in use, want 2 (one stolen by core 0)", got)
	}
	if next := m.NextEventAfter(3); next <= 4 {
		t.Fatalf("NextEventAfter(3) = %d: no walker is free, so the MMU should sleep until a walk completes", next)
	}
}
