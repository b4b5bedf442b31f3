package sim

import (
	"context"
	"fmt"

	"mnpusim/internal/clock"
	"mnpusim/internal/dram"
	"mnpusim/internal/invariant"
	"mnpusim/internal/mem"
	"mnpusim/internal/mmu"
	"mnpusim/internal/npu"
	"mnpusim/internal/obs"
	"mnpusim/internal/obs/hostprof"
	"mnpusim/internal/tile"
)

// CoreResult summarizes one core's measured inference.
type CoreResult struct {
	Net string
	// Cycles is the first-iteration latency in the core's local clock:
	// the avg_cycle output of the original simulator.
	Cycles int64
	// Utilization is PE utilization over the first iteration.
	Utilization float64
	// Iterations counts completed inferences including co-runner loops.
	Iterations int
	// TrafficBytes is the schedule's off-chip traffic per inference.
	TrafficBytes int64
	// FootprintBytes is the virtual-address footprint (the
	// memory_footprint output).
	FootprintBytes int64
	// LayerEndCycles maps layer index to first-iteration completion
	// cycle (the execution_cycle output).
	LayerEndCycles map[int]int64

	NPU npu.Stats
	MMU mmu.CoreStats
	// TLBHitRate is the hit rate of the TLB serving this core (shared
	// TLBs report the merged rate). It counts every cycle on which the
	// core held a request refused for a full MSHR (MMU.MSHRStalls) as a
	// miss, so on translation-bound runs it sits far below
	// MMU.TLBHits/MMU.Translations: on ncf+gpt2 at Static, ncf reports
	// 0.011 against 0.354.
	TLBHitRate float64
	// DataBytes and PTBytes split completed DRAM traffic by class.
	DataBytes int64
	PTBytes   int64
}

// Result is the outcome of one simulation.
type Result struct {
	Cores        []CoreResult
	GlobalCycles int64
	DRAM         dram.Stats
	Sharing      Sharing
}

// DRAMEnergy returns the off-chip energy breakdown of the run under the
// given energy parameters.
func (r Result) DRAMEnergy(p dram.EnergyParams) dram.EnergyBreakdown {
	return r.DRAM.Energy(p, r.GlobalCycles)
}

// farFuture is the "no pending event" horizon on the global clock.
const farFuture clock.Global = clock.FarFuture

// cancelCheckMask throttles how often both kernels poll the context's
// done channel: every 64 processed cycles (tick-kernel iterations or
// event-kernel drained cycles), plus — in the tick kernel —
// unconditionally at every fast-forward boundary. A processed cycle is
// the unit of real work in both kernels, so the poll interval bounds
// cancellation latency the same way in each.
const cancelCheckMask = 63

// Run executes the configured system until every core completes its
// first inference (co-runners loop to keep generating contention, per
// the mix methodology of §4.1.1), and returns the per-core results.
//
// Run is RunContext with a background (never-cancelled) context.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// system is one fully built simulation: the hardware, the probe sink,
// and the main-loop bookkeeping shared by both kernels.
type system struct {
	cfg    Config
	memory *dram.Memory
	unit   *mmu.MMU
	cores  []*npu.Core
	starts []clock.Global
	sink   obs.Sink

	// finished tracks which cores already emitted their first-inference
	// phase event; nil when no sink is attached.
	finished []bool

	// Loop bookkeeping, identical across kernels by construction: the
	// event kernel processes exactly the cycles the tick kernel's
	// fast-forward would tick, so loopIters/loopSkips/loopSkipped (and
	// the probe events derived from them) match byte-for-byte.
	loopIters, loopSkips, loopSkipped int64

	// compTicks counts per-component Tick invocations (one per channel,
	// MMU, or core per ticked cycle); the headline metric the event
	// kernel reduces.
	compTicks int64
}

func (s *system) allDone() bool {
	for _, c := range s.cores {
		if !c.FinishedFirstIteration() {
			return false
		}
	}
	return true
}

// phaseScan emits a first-inference phase event for every core that
// newly finished during cycle now; both kernels call it after every
// processed cycle so the phase stream is identical.
func (s *system) phaseScan(now clock.Global) {
	if s.sink == nil {
		return
	}
	for i, c := range s.cores {
		if !s.finished[i] && c.FinishedFirstIteration() {
			s.finished[i] = true
			s.sink.Emit(obs.Event{Cycle: now, Kind: obs.KindPhase, Core: int32(i), Str: obs.PhaseFirstInference})
		}
	}
}

func (s *system) cancelled(ctx context.Context, at clock.Global) error {
	return fmt.Errorf("sim: run cancelled at cycle %d: %w", at, ctx.Err())
}

// RunContext is Run with cancellation: if ctx is cancelled or its
// deadline passes mid-run, the simulation stops within a bounded number
// of loop iterations (tick kernel) or heap pops (event kernel) and
// returns an error wrapping ctx.Err(). A cancelled run returns a zero
// Result; partial simulation state is discarded. The simulation itself
// is single-goroutine, so cancellation leaks nothing.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("sim: run not started: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	n := cfg.Cores()
	kern := cfg.effectiveKernel()

	// Build the hardware.
	memory, err := dram.New(cfg.DRAM)
	if err != nil {
		return Result{}, err
	}
	for i, set := range cfg.channelSets() {
		if err := memory.SetCoreChannels(i, set); err != nil {
			return Result{}, err
		}
	}

	ids := &mem.IDAllocator{}
	tables := make([]*mmu.PageTable, n)
	for i := 0; i < n; i++ {
		alloc := mmu.NewPhysAllocator(uint64(i)*cfg.PhysBytesPerCore, cfg.PhysBytesPerCore, cfg.PageSize)
		tables[i] = mmu.NewPageTable(cfg.PageSize, cfg.WalkLevels, alloc)
	}
	unit, err := mmu.New(cfg.mmuConfig(), memory, tables, ids)
	if err != nil {
		return Result{}, err
	}

	// One probe stream, fanned out to the caller's sink and the metrics
	// registry. The deprecated OnLoopStats shim needs a registry even
	// when the caller provided none.
	reg := cfg.Metrics
	if reg == nil && cfg.OnLoopStats != nil {
		reg = obs.NewRegistry()
	}
	sink := cfg.Obs
	if reg != nil {
		sink = obs.Tee(sink, obs.NewRegistrySink(reg))
	}
	// The profiler times the whole sink chain (caller's sink + registry
	// fold) at the emission boundary; with no profiler the sink passes
	// through unwrapped, preserving the nil fast path.
	sink = cfg.HostProf.WrapSink(sink)
	memory.SetObs(sink)
	unit.SetObs(sink)

	starts := cfg.StartCycles
	if starts == nil {
		starts = make([]clock.Global, n)
	}

	// The event kernel is created before the cores so its wake function
	// can be wired into the stimulus seams: DRAM enqueues and burst
	// completions (memory hooks) and DMA submissions (the per-core
	// Submitter wrapper). Component ids are heap tie-break priorities
	// and mirror the tick loop's within-cycle order: channels, MMU,
	// cores.
	var ek *eventKernel
	if kern == KernelEvent {
		chs := memory.Channels()
		ek = newEventKernel(chs + 1 + n)
		// An enqueue re-arms the landing channel at the channel's own
		// recomputed horizon, not blindly now+1: the fresh request's
		// earliest command may sit behind bank or bus timers, and the
		// tick kernel's fast-forward (which recomputes the device
		// horizon after every cycle) would skip straight to it. More
		// work can only move the horizon earlier, so wake()'s
		// earlier-only rule applies cleanly.
		memory.OnEnqueue = func(now clock.Global, ch int) { ek.wake(ch, memory.ChannelNextEventAfter(ch, now)) }
		memory.OnComplete = func(done clock.Global, r *mem.Request) {
			if r.Class == mem.PageTable {
				ek.wake(chs, done)
			} else if r.Core >= 0 && r.Core < n {
				ek.wake(chs+1+r.Core, done)
			}
		}
		// A walk completion that frees an MSHR slot wakes the core Submit
		// refused for a full MSHR on the same cycle: the MMU ticks before
		// the cores, so the core resubmits exactly when per-cycle
		// retrying would first succeed.
		unit.OnMSHRFree = func(now clock.Global, core int) { ek.wake(chs+1+core, now) }
	}

	// Compile the software and build the cores.
	cores := make([]*npu.Core, n)
	scheds := make([]*tile.Schedule, n)
	for i := 0; i < n; i++ {
		a := cfg.Arch[i]
		sched, err := tile.BuildCached(cfg.Nets[i], tile.Params{
			Array:      a.Array,
			Dataflow:   a.Dataflow,
			SPMBytes:   a.SPMBytes,
			DTypeBytes: a.DTypeBytes,
			BlockBytes: a.BlockBytes,
		})
		if err != nil {
			return Result{}, fmt.Errorf("sim: core %d: %w", i, err)
		}
		scheds[i] = sched
		dom := clock.NewDomain(a.FreqHz, clock.Hz(cfg.DRAM.FreqHz))
		submitter := npu.Submitter(unit)
		if ek != nil {
			submitter = &wakeSubmitter{mmu: unit, ek: ek, mmuID: memory.Channels(), start: starts[i]}
		}
		core, err := npu.NewCore(i, a, sched, dom, submitter, ids)
		if err != nil {
			return Result{}, err
		}
		if cfg.OnIssue != nil {
			core.OnIssue = cfg.OnIssue
		}
		core.Obs = sink
		core.ObsCycleOffset = starts[i]
		cores[i] = core
	}

	// Per-core transfer accounting (plus the caller's hook).
	dataBytes := make([]int64, n)
	ptBytes := make([]int64, n)
	memory.OnTransfer = func(now clock.Global, core int, bytes int, class mem.Class) {
		if core >= 0 && core < n {
			if class == mem.PageTable {
				ptBytes[core] += int64(bytes)
			} else {
				dataBytes[core] += int64(bytes)
			}
		}
		if cfg.OnTransfer != nil {
			cfg.OnTransfer(now, core, bytes, class)
		}
	}

	sys := &system{
		cfg:    cfg,
		memory: memory,
		unit:   unit,
		cores:  cores,
		starts: starts,
		sink:   sink,
	}

	if sink != nil {
		sink.Emit(obs.Event{Cycle: 0, Kind: obs.KindRunStart, Core: -1, A: int64(n), Str: cfg.Sharing.String()})
		for i := 0; i < n; i++ {
			sink.Emit(obs.Event{Cycle: 0, Kind: obs.KindCoreInfo, Core: int32(i), Str: cfg.Nets[i].Name})
		}
		sys.finished = make([]bool, n)
	}

	var hpRun int64
	if cfg.HostProf != nil {
		hpRun = hostprof.Now()
	}
	var now clock.Global
	if kern == KernelTick {
		now, err = sys.runTick(ctx)
	} else {
		now, err = sys.runEvent(ctx, ek)
	}
	if cfg.HostProf != nil {
		cfg.HostProf.Add(hostprof.SecRun, hostprof.Now()-hpRun)
	}
	if err != nil {
		return Result{}, err
	}

	if sink != nil {
		sink.Emit(obs.Event{Cycle: now, Kind: obs.KindRunEnd, Core: -1, A: now.Int64(), B: sys.loopIters})
	}
	if reg != nil {
		// Kernel cost counters, written directly (not via the probe
		// stream, which stays identical across kernels): component-tick
		// invocations, and for the event kernel its heap traffic.
		reg.Counter("sim.component_ticks").Add(sys.compTicks)
		if ek != nil {
			reg.Counter("sim.heap_pops").Add(ek.pops)
		}
		cfg.HostProf.Publish(reg)
	}
	if cfg.OnLoopStats != nil {
		// Deprecated shim: the loop bookkeeping now flows through the
		// probe stream into the registry; replay it from a snapshot.
		snap := reg.Snapshot()
		cfg.OnLoopStats(snap.Value("sim.loop_iters"), snap.Value("sim.skip_windows"), snap.Value("sim.skipped_cycles"))
	}

	res := Result{
		Cores:        make([]CoreResult, n),
		GlobalCycles: now.Int64(),
		DRAM:         memory.Stats(),
		Sharing:      cfg.Sharing,
	}
	for i, c := range cores {
		st := c.Stats()
		res.Cores[i] = CoreResult{
			Net:            cfg.Nets[i].Name,
			Cycles:         st.FirstIterCycles,
			Utilization:    st.Utilization(cfg.Arch[i]),
			Iterations:     st.Iterations,
			TrafficBytes:   scheds[i].TrafficBytes(),
			FootprintBytes: scheds[i].FootprintBytes,
			LayerEndCycles: st.LayerEndCycles,
			NPU:            st,
			MMU:            unit.Stats(i),
			DataBytes:      dataBytes[i],
			PTBytes:        ptBytes[i],
		}
		if !cfg.NoTranslation {
			res.Cores[i].TLBHitRate = unit.TLBFor(i).HitRate()
		}
	}
	return res, nil
}

// runTick is the legacy tick-everything loop: every component ticks on
// every global cycle, with a fast-forward across windows in which no
// component can change state. It returns the final global cycle count.
func (s *system) runTick(ctx context.Context) (clock.Global, error) {
	cfg := s.cfg
	chTicks := int64(s.memory.Channels())
	hp := cfg.HostProf

	// done is nil for context.Background(), turning every cancellation
	// poll into a single branch.
	done := ctx.Done()

	var now clock.Global
	var prevNow clock.Global = -1
	for !s.allDone() {
		if done != nil && s.loopIters&cancelCheckMask == 0 {
			select {
			case <-done:
				return 0, s.cancelled(ctx, now)
			default:
			}
		}
		s.loopIters++
		if invariant.Enabled {
			invariant.Check(now > prevNow,
				"sim: global clock not monotonic: %d after %d", now, prevNow)
			prevNow = now
		}
		if cfg.MaxGlobalCycles > 0 && now > cfg.MaxGlobalCycles {
			return 0, fmt.Errorf("sim: exceeded MaxGlobalCycles=%d (deadlock or runaway config)", cfg.MaxGlobalCycles)
		}
		// Host-time ladder: one clock read per section boundary, and none
		// at all when no profiler is attached.
		var hpT int64
		if hp != nil {
			hpT = hostprof.Now()
		}
		s.memory.Tick(now)
		if hp != nil {
			hpT = hp.AddSince(hostprof.SecTickDRAM, hpT)
		}
		s.unit.Tick(now)
		if hp != nil {
			hpT = hp.AddSince(hostprof.SecTickMMU, hpT)
		}
		s.compTicks += chTicks + 1
		for i, c := range s.cores {
			if now < s.starts[i] {
				continue
			}
			c.Tick(now - s.starts[i])
			s.compTicks++
		}
		if hp != nil {
			hpT = hp.AddSince(hostprof.SecTickCore, hpT)
		}
		s.phaseScan(now)
		// Event skipping: every component reports the earliest cycle at
		// which its state can change. The horizon must be computed after
		// the ticks — a request submitted this cycle may have armed the
		// MMU or DRAM. Anything at or before now+1 means the next cycle
		// must tick normally; otherwise no component changes state in
		// (now, next), so the window is fast-forwarded and the ticks it
		// would have run are no-ops by construction.
		next := s.memory.NextEventAfter(now)
		if next > now+1 {
			if e := s.unit.NextEventAfter(now); e < next {
				next = e
			}
		}
		if next > now+1 {
			for i, c := range s.cores {
				if now < s.starts[i] {
					next = min(next, s.starts[i])
				} else if e := c.NextEventAfter(now-s.starts[i]) + s.starts[i]; e < next {
					next = e
				}
				if next <= now+1 {
					break
				}
			}
		}
		if next <= now+1 {
			if hp != nil {
				hp.AddSince(hostprof.SecKernelHeap, hpT)
			}
			now++
			continue
		}
		if next >= farFuture {
			return 0, fmt.Errorf("sim: system wedged at cycle %d with no pending events: %s", now, describeWedge(s.cores, s.unit))
		}
		if invariant.Enabled {
			invariant.Check(next > now+1,
				"sim: fast-forward target %d does not advance past %d", next, now)
		}
		if done != nil {
			select {
			case <-done:
				return 0, s.cancelled(ctx, now)
			default:
			}
		}
		s.loopSkips++
		s.loopSkipped += (next - now - 1).Int64()
		if s.sink != nil {
			s.sink.Emit(obs.Event{Cycle: now, Kind: obs.KindSkipWindow, Core: -1, A: (next - now - 1).Int64()})
		}
		s.memory.SkipTo(next)
		s.unit.SkipTo(next)
		for i, c := range s.cores {
			if now >= s.starts[i] {
				c.SkipTo(next - s.starts[i])
			}
		}
		if hp != nil {
			hp.AddSince(hostprof.SecKernelHeap, hpT)
		}
		now = next
	}
	return now, nil
}

// RunIdeal runs each core's workload alone on the Ideal configuration
// derived from cfg, returning one single-core result per workload. These
// are the normalization baselines for speedup and slowdown.
func RunIdeal(cfg Config) ([]CoreResult, error) {
	return RunIdealContext(context.Background(), cfg)
}

// RunIdealContext is RunIdeal with cancellation; the per-core Ideal runs
// execute sequentially, each under ctx.
func RunIdealContext(ctx context.Context, cfg Config) ([]CoreResult, error) {
	out := make([]CoreResult, cfg.Cores())
	for i := range out {
		r, err := RunContext(ctx, IdealFor(cfg, i))
		if err != nil {
			return nil, fmt.Errorf("sim: ideal run for core %d: %w", i, err)
		}
		out[i] = r.Cores[0]
	}
	return out, nil
}

// describeWedge reports per-core pipeline state for the wedge error.
func describeWedge(cores []*npu.Core, unit *mmu.MMU) string {
	s := ""
	for i, c := range cores {
		s += fmt.Sprintf(" core%d{%s pendingWalks=%d walkersInUse=%d}", i, c.DebugState(), unit.PendingWalks(i), unit.WalkersInUse(i))
	}
	return s
}
