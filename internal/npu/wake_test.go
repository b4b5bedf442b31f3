package npu

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/mem"
	"mnpusim/internal/model"
	"mnpusim/internal/obs"
)

// wakingSubmitter wraps a recordingSubmitter so that delivering a
// completion at cycle done also arms the core's wake entry for that
// cycle — the test-side analogue of dram.Memory.OnComplete.
type wakingSubmitter struct {
	*recordingSubmitter
	arm func(at clock.Global)
}

func (s *wakingSubmitter) Submit(now clock.Global, r *mem.Request) bool {
	inner := r.Done
	arm := s.arm
	r.Done = func(done clock.Global, rr *mem.Request) {
		if inner != nil {
			inner(done, rr)
		}
		arm(done)
	}
	return s.recordingSubmitter.Submit(now, r)
}

// TestCoreWakeContract is the npu half of the event kernel's wake
// contract: after Tick(now), a core's observable state must not change
// before its reported NextEventAfter(now) unless a memory completion
// lands first. Two identical cores run the same schedule against
// submitters with the same fixed completion delay — the reference ticks
// every global cycle, the other only at its armed wake cycle (re-armed
// by each completion delivery, with SkipTo catching up skipped windows
// exactly as the kernel's coreComp does). A state change the contract
// failed to announce shifts a DMA issue or the finish cycle.
func TestCoreWakeContract(t *testing.T) {
	cases := []struct {
		name  string
		freq  clock.Hz
		delay clock.Global
	}{
		{"1to1-d10", clock.GHz, 10},
		{"1to1-d37", clock.GHz, 37},
		{"700MHz-d10", 700 * clock.MHz, 10},
		{"700MHz-d61", 700 * clock.MHz, 61},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arch := TinyCore()
			arch.FreqHz = tc.freq
			sched := buildSchedule(t, arch, multiTileNet())
			dom := clock.NewDomain(arch.FreqHz, clock.GHz)

			refSub := &recordingSubmitter{delay: tc.delay}
			ref, err := NewCore(0, arch, sched, dom, refSub, &mem.IDAllocator{})
			if err != nil {
				t.Fatal(err)
			}

			const far = clock.Global(clock.FarFuture)
			armed, last := clock.Global(0), clock.Global(-1)
			wakeSub := &wakingSubmitter{
				recordingSubmitter: &recordingSubmitter{delay: tc.delay},
				arm: func(at clock.Global) {
					if at < armed {
						armed = at
					}
				},
			}
			wake, err := NewCore(0, arch, sched, dom, wakeSub, &mem.IDAllocator{})
			if err != nil {
				t.Fatal(err)
			}

			const limit = 2_000_000
			refFinish, wakeFinish := clock.Global(-1), clock.Global(-1)
			for now := clock.Global(0); now < limit && (refFinish < 0 || wakeFinish < 0); now++ {
				refSub.tick(now)
				if refFinish < 0 {
					ref.Tick(now)
					if ref.FinishedFirstIteration() {
						refFinish = now
					}
				}
				// The wake submitter's completions may pull armed back to
				// the current cycle, so it ticks before the arm check.
				wakeSub.tick(now)
				if wakeFinish < 0 && armed <= now {
					if last < now-1 {
						wake.SkipTo(now)
					}
					wake.Tick(now)
					last = now
					if wake.FinishedFirstIteration() {
						wakeFinish = now
					} else {
						next := wake.NextEventAfter(now)
						if next <= now {
							t.Fatalf("cycle %d: horizon %d not in the future", now, next)
						}
						armed = min(next, far)
					}
				}
			}

			if refFinish < 0 || wakeFinish < 0 {
				t.Fatalf("no finish in %d cycles (ref=%d wake=%d)", clock.Global(limit), refFinish, wakeFinish)
			}
			if refFinish != wakeFinish {
				t.Fatalf("finish cycles diverged: ref=%d wake=%d", refFinish, wakeFinish)
			}
			if !reflect.DeepEqual(refSub.issues, wakeSub.issues) {
				t.Fatalf("DMA issue streams diverged: ref=%d issues wake=%d issues",
					len(refSub.issues), len(wakeSub.issues))
			}
			if !reflect.DeepEqual(ref.Stats(), wake.Stats()) {
				t.Errorf("stats diverged:\nref:  %+v\nwake: %+v", ref.Stats(), wake.Stats())
			}
		})
	}
	testMSHRParking(t)
}

// testMSHRParking extends the core's wake contract to MSHR
// back-pressure: both twins submit through an mshrSubmitter whose small
// MSHR file refuses new pages until a walk completes. The reference
// resubmits a refused request on every cycle; the wake twin parks until
// the submitter's MSHR-free hook wakes it on the completion cycle, and
// SkipTo credits the resubmissions it skipped. Issue streams, finish
// cycles, probe streams, core stats and the stall counts must match.
// Slow clocks put
// some MSHR wakes on ticks that advance no local cycle, after which the
// core must resubmit on its next tick rather than sleep.
func testMSHRParking(t *testing.T) {
	cases := []struct {
		name        string
		freq        clock.Hz
		maxInflight int
	}{
		{"1GHz", clock.GHz, 0},
		{"700MHz", 700 * clock.MHz, 0},
		{"1500MHz", 1500 * clock.MHz, 0},
		{"700MHz-inflight16", 700 * clock.MHz, 16},
	}
	for _, tc := range cases {
		t.Run("mshr/"+tc.name, func(t *testing.T) {
			arch := TinyCore()
			arch.FreqHz = tc.freq
			if tc.maxInflight > 0 {
				arch.DMAMaxInflight = tc.maxInflight
			}
			sched := buildSchedule(t, arch, manyTileNet())
			dom := clock.NewDomain(arch.FreqHz, clock.GHz)

			var refEv, wakeEv []obs.Event
			refSub := newMSHRSubmitter()
			ref, err := NewCore(0, arch, sched, dom, refSub, &mem.IDAllocator{})
			if err != nil {
				t.Fatal(err)
			}
			ref.Obs = obs.Func(func(e obs.Event) { refEv = append(refEv, e) })

			const far = clock.Global(clock.FarFuture)
			armed, last := clock.Global(0), clock.Global(-1)
			freed := false
			wakeSub := newMSHRSubmitter()
			wakeSub.arm = func(at clock.Global) { armed = min(armed, at) }
			wakeSub.free = func(at clock.Global) { armed, freed = min(armed, at), true }
			wake, err := NewCore(0, arch, sched, dom, wakeSub, &mem.IDAllocator{})
			if err != nil {
				t.Fatal(err)
			}
			wake.Obs = obs.Func(func(e obs.Event) { wakeEv = append(wakeEv, e) })

			const limit = 2_000_000
			refFinish, wakeFinish := clock.Global(-1), clock.Global(-1)
			var ticks, zeroWakes int
			for now := clock.Global(0); now < limit && (refFinish < 0 || wakeFinish < 0); now++ {
				refSub.tick(now)
				if refFinish < 0 {
					ref.Tick(now)
					if ref.FinishedFirstIteration() {
						refFinish = now
					}
				}
				wakeSub.tick(now)
				if wakeFinish < 0 && armed <= now {
					if last < now-1 {
						wake.SkipTo(now)
					}
					before := wake.Stats().LocalCycles
					wake.Tick(now)
					last = now
					ticks++
					if freed && wake.Stats().LocalCycles == before {
						zeroWakes++
					}
					if wake.FinishedFirstIteration() {
						wakeFinish = now
					} else {
						next := wake.NextEventAfter(now)
						if next <= now {
							t.Fatalf("cycle %d: horizon %d not in the future", now, next)
						}
						armed = min(next, far)
					}
				}
				freed = false
			}

			if refFinish < 0 || refFinish != wakeFinish {
				t.Fatalf("finish cycles diverged: ref=%d wake=%d", refFinish, wakeFinish)
			}
			if !reflect.DeepEqual(refSub.issues, wakeSub.issues) {
				t.Fatalf("DMA issue streams diverged: ref=%d issues wake=%d issues",
					len(refSub.issues), len(wakeSub.issues))
			}
			if !reflect.DeepEqual(ref.Stats(), wake.Stats()) {
				t.Errorf("stats diverged:\nref:  %+v\nwake: %+v", ref.Stats(), wake.Stats())
			}
			if !reflect.DeepEqual(refEv, wakeEv) {
				t.Errorf("probe streams diverged: ref=%d events wake=%d events", len(refEv), len(wakeEv))
			}
			if refSub.stalls != wakeSub.stalls {
				t.Errorf("MSHR stalls diverged: ref=%d wake=%d (%d credited)", refSub.stalls, wakeSub.stalls, wakeSub.credited)
			}
			if wakeSub.credited == 0 {
				t.Errorf("the wake twin never slept on a full MSHR (%d stalls)", wakeSub.stalls)
			}
			if tc.freq < clock.GHz && zeroWakes == 0 {
				t.Errorf("no MSHR wake landed on a tick that advanced no local cycle")
			}
			t.Logf("%d stalls, %d credited; wake twin ticked %d of %d cycles, %d MSHR wakes advanced no local cycle",
				wakeSub.stalls, wakeSub.credited, ticks, refFinish+1, zeroWakes)
		})
	}
}

// manyTileNet is a chain of small layers, one tile each, so the core
// performs many SPM swaps, some while parked on a refused store.
func manyTileNet() model.Network {
	net := model.Network{Name: "many"}
	for i := 0; i < 24; i++ {
		net.Layers = append(net.Layers, model.Layer{
			Name: fmt.Sprint("fc", i), Kind: model.FC, M: 32, K: 32 + 32*(i%3), N: 32 + 16*(i%4),
		})
	}
	return net
}

// mshrPageShift sizes the mshrSubmitter's pages: 256 bytes, four DMA
// blocks, so a streaming core needs a new page almost every cycle.
const mshrPageShift = 8

// mshrSubmitter is an MMU front end with a small MSHR file. A request
// to an untranslated page needs a walk; requests to a page whose walk
// is pending join it; a request to a new page while every MSHR holds a
// walk is refused, counted as a stall, and leaves the submitter
// blocked until a walk completes and frees one. Each request completes
// 20 to 32 cycles after its translation, varying with its issue order
// so completions spread over the core's clock phases.
type mshrSubmitter struct {
	limit       int
	walk, delay clock.Global
	translated  map[uint64]bool
	walks       []mshrWalk // one per held MSHR
	pending     []struct {
		at clock.Global
		r  *mem.Request
	}
	issues []struct {
		at   clock.Global
		kind mem.Kind
	}
	blocked          bool
	stalls, credited int64
	// arm wakes the core on a completion; free on the walk completion
	// that unblocks it.
	arm, free func(at clock.Global)
}

// mshrWalk is a pending walk: its page and completion cycle.
type mshrWalk struct {
	page uint64
	at   clock.Global
}

func newMSHRSubmitter() *mshrSubmitter {
	return &mshrSubmitter{limit: 2, walk: 33, delay: 20, translated: map[uint64]bool{}}
}

func (s *mshrSubmitter) Submit(now clock.Global, r *mem.Request) bool {
	page := r.VAddr >> mshrPageShift
	at := now
	if !s.translated[page] {
		i := slices.IndexFunc(s.walks, func(w mshrWalk) bool { return w.page == page })
		if i < 0 {
			if len(s.walks) >= s.limit {
				s.stalls++
				s.blocked = true
				return false
			}
			s.walks = append(s.walks, mshrWalk{page, now + s.walk})
			i = len(s.walks) - 1
		}
		at = s.walks[i].at
	}
	s.issues = append(s.issues, struct {
		at   clock.Global
		kind mem.Kind
	}{now, r.Kind})
	if s.arm != nil {
		inner, arm := r.Done, s.arm
		r.Done = func(done clock.Global, rr *mem.Request) {
			if inner != nil {
				inner(done, rr)
			}
			arm(done)
		}
	}
	s.pending = append(s.pending, struct {
		at clock.Global
		r  *mem.Request
	}{at + s.delay + clock.Global(len(s.issues)*7%13), r})
	return true
}

func (s *mshrSubmitter) MSHRBlocked(int) bool { return s.blocked }

func (s *mshrSubmitter) CreditMSHRStalls(_ int, n int64) {
	s.stalls += n
	s.credited += n
}

// tick completes due walks, waking a blocked core, then delivers due
// completions.
func (s *mshrSubmitter) tick(now clock.Global) {
	walks := s.walks[:0]
	for _, w := range s.walks {
		if w.at <= now {
			s.translated[w.page] = true
		} else {
			walks = append(walks, w)
		}
	}
	if len(walks) < len(s.walks) && s.blocked {
		s.blocked = false
		if s.free != nil {
			s.free(now)
		}
	}
	s.walks = walks
	out := s.pending[:0]
	for _, p := range s.pending {
		if p.at <= now {
			p.r.Complete(now)
		} else {
			out = append(out, p)
		}
	}
	s.pending = out
}

// TestCoreWakeContractRandomizedDelay stresses the contract with a
// submitter whose per-request delay is a pure function of the issue
// order (so both twins see identical completion times) drawn from a
// seeded stream, covering reordered completions and bursty delivery.
func TestCoreWakeContractRandomizedDelay(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			arch := TinyCore()
			sched := buildSchedule(t, arch, multiTileNet())
			dom := clock.NewDomain(arch.FreqHz, clock.GHz)

			mkDelays := func() func() clock.Global {
				rng := rand.New(rand.NewSource(seed))
				return func() clock.Global { return 1 + clock.Global(rng.Intn(96)) }
			}
			refSub := &variableSubmitter{next: mkDelays()}
			ref, err := NewCore(0, arch, sched, dom, refSub, &mem.IDAllocator{})
			if err != nil {
				t.Fatal(err)
			}

			const far = clock.Global(clock.FarFuture)
			armed, last := clock.Global(0), clock.Global(-1)
			wakeSub := &variableSubmitter{next: mkDelays(), arm: func(at clock.Global) {
				if at < armed {
					armed = at
				}
			}}
			wake, err := NewCore(0, arch, sched, dom, wakeSub, &mem.IDAllocator{})
			if err != nil {
				t.Fatal(err)
			}

			const limit = 2_000_000
			refFinish, wakeFinish := clock.Global(-1), clock.Global(-1)
			for now := clock.Global(0); now < limit && (refFinish < 0 || wakeFinish < 0); now++ {
				refSub.tick(now)
				if refFinish < 0 {
					ref.Tick(now)
					if ref.FinishedFirstIteration() {
						refFinish = now
					}
				}
				wakeSub.tick(now)
				if wakeFinish < 0 && armed <= now {
					if last < now-1 {
						wake.SkipTo(now)
					}
					wake.Tick(now)
					last = now
					if wake.FinishedFirstIteration() {
						wakeFinish = now
					} else {
						next := wake.NextEventAfter(now)
						if next <= now {
							t.Fatalf("cycle %d: horizon %d not in the future", now, next)
						}
						armed = min(next, far)
					}
				}
			}

			if refFinish != wakeFinish || refFinish < 0 {
				t.Fatalf("finish cycles diverged: ref=%d wake=%d", refFinish, wakeFinish)
			}
			if !reflect.DeepEqual(refSub.issues, wakeSub.issues) {
				t.Fatalf("DMA issue streams diverged: ref=%d issues wake=%d issues",
					len(refSub.issues), len(wakeSub.issues))
			}
			if !reflect.DeepEqual(ref.Stats(), wake.Stats()) {
				t.Errorf("stats diverged:\nref:  %+v\nwake: %+v", ref.Stats(), wake.Stats())
			}
		})
	}
}

// variableSubmitter completes each request after a delay drawn from a
// deterministic per-instance stream; with identical streams two
// instances deliver identical completion schedules.
type variableSubmitter struct {
	next    func() clock.Global
	pending []struct {
		at clock.Global
		r  *mem.Request
	}
	issues []struct {
		at   clock.Global
		kind mem.Kind
	}
	arm func(at clock.Global)
}

func (s *variableSubmitter) Submit(now clock.Global, r *mem.Request) bool {
	s.issues = append(s.issues, struct {
		at   clock.Global
		kind mem.Kind
	}{now, r.Kind})
	at := now + s.next()
	if s.arm != nil {
		inner := r.Done
		arm := s.arm
		r.Done = func(done clock.Global, rr *mem.Request) {
			if inner != nil {
				inner(done, rr)
			}
			arm(done)
		}
	}
	s.pending = append(s.pending, struct {
		at clock.Global
		r  *mem.Request
	}{at, r})
	return true
}

func (s *variableSubmitter) MSHRBlocked(int) bool { return false }

func (s *variableSubmitter) CreditMSHRStalls(int, int64) {}

func (s *variableSubmitter) tick(now clock.Global) {
	out := s.pending[:0]
	for _, p := range s.pending {
		if p.at <= now {
			p.r.Complete(now)
		} else {
			out = append(out, p)
		}
	}
	s.pending = out
}
