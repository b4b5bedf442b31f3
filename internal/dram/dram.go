package dram

import (
	"fmt"

	"mnpusim/internal/clock"
	"mnpusim/internal/invariant"
	"mnpusim/internal/mem"
	"mnpusim/internal/obs"
)

// TransferFunc observes every completed data burst; used by the
// bandwidth-timeline instrumentation (Fig. 12).
type TransferFunc func(now clock.Global, core int, bytes int, class mem.Class)

// Memory is one DRAM device: a set of channels with per-channel
// controllers, plus per-core channel routing for bandwidth sharing and
// partitioning.
type Memory struct {
	cfg      Config
	channels []*channel
	mappers  []*Mapper // indexed by core; nil until routed
	seq      uint64
	inflight int

	// OnTransfer, if non-nil, is called when a request's data burst
	// completes.
	OnTransfer TransferFunc

	// OnEnqueue, if non-nil, is called after a request is admitted into
	// channel ch's controller queue. The event-driven kernel uses it to
	// arm the channel's wake entry: an enqueue at cycle now means the
	// channel can change state at now+1.
	OnEnqueue func(now clock.Global, ch int)

	// OnComplete, if non-nil, is called after a request's Done chain has
	// run (burst retired at cycle done). The event-driven kernel uses it
	// to wake the request's originator — the MMU for page-table reads,
	// the issuing core for data — on the completion cycle.
	OnComplete func(done clock.Global, r *mem.Request)

	// obs, if non-nil, receives structured probe events (enqueues,
	// transfers, and the per-channel command stream). Observation never
	// alters scheduling.
	obs obs.Sink
}

// New creates a Memory. Every core that issues requests must be routed
// with SetCoreChannels before the first Enqueue; cores without an
// explicit assignment share all channels.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Memory{cfg: cfg}
	m.channels = make([]*channel, cfg.Channels)
	retired := m.complete
	for i := range m.channels {
		m.channels[i] = newChannel(cfg, i, retired)
	}
	return m, nil
}

// MustNew is New, panicking on error; for tests and presets known valid.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the device configuration.
func (m *Memory) Config() Config { return m.cfg }

// SetObs attaches a probe-event sink to the device and every channel
// controller; nil detaches it.
func (m *Memory) SetObs(s obs.Sink) {
	m.obs = s
	for _, ch := range m.channels {
		ch.obs = s
	}
}

// SetCoreChannels routes core's physical blocks across the given channel
// set. Passing nil or an empty set assigns all channels. It rejects a
// negative core or a channel outside the device.
func (m *Memory) SetCoreChannels(core int, channels []int) error {
	if core < 0 {
		return fmt.Errorf("dram: negative core %d", core)
	}
	for _, ch := range channels {
		if ch < 0 || ch >= m.cfg.Channels {
			return fmt.Errorf("dram: core %d routed to channel %d, device has %d", core, ch, m.cfg.Channels)
		}
	}
	for core >= len(m.mappers) {
		m.mappers = append(m.mappers, nil)
	}
	if len(channels) == 0 {
		channels = make([]int, m.cfg.Channels)
		for i := range channels {
			channels[i] = i
		}
	}
	m.mappers[core] = NewMapper(m.cfg, channels)
	return nil
}

func (m *Memory) mapperFor(core int) *Mapper {
	if core >= 0 && core < len(m.mappers) && m.mappers[core] != nil {
		return m.mappers[core]
	}
	all := make([]int, m.cfg.Channels)
	for i := range all {
		all[i] = i
	}
	mp := NewMapper(m.cfg, all)
	if core >= 0 {
		for core >= len(m.mappers) {
			m.mappers = append(m.mappers, nil)
		}
		m.mappers[core] = mp
	}
	return mp
}

// CanAccept reports whether a request from core to addr would be
// admitted right now.
func (m *Memory) CanAccept(core int, addr uint64) bool {
	ch, _ := m.mapperFor(core).channelOf(addr)
	return m.channels[ch].canAccept()
}

// Enqueue admits r into its channel's controller queue. It returns false
// if the queue is full, leaving r untouched except for r.DRAMChannel,
// which names the full channel; the caller should retry on a later
// cycle. The request's Done callback fires when its data burst
// completes.
//
//lint:allow wakecontract audited stimulus seam: OnEnqueue re-arms the landing channel, and OnComplete, called when the burst retires, re-arms the walk or data consumer at its completion cycle
func (m *Memory) Enqueue(now clock.Global, r *mem.Request) bool {
	// A full channel may refuse a request many times before it admits
	// it, so only the first attempt decodes the channel; a refused retry
	// costs one lookup. The full location is decoded on admission.
	first := r.DRAMChannel == 0
	if first {
		ch, _ := m.mapperFor(r.Core).channelOf(r.Addr)
		r.DRAMChannel = int32(ch) + 1
	} else if invariant.Enabled {
		fresh, _ := m.mapperFor(r.Core).channelOf(r.Addr)
		invariant.Check(int(r.DRAMChannel)-1 == fresh,
			"dram: request %d cached channel %d, address %#x decodes to %d", r.ID, r.DRAMChannel-1, r.Addr, fresh)
	}
	ch := m.channels[r.DRAMChannel-1]
	if !ch.canAccept() {
		if first {
			ch.stats.QueueFullRejects++
		}
		return false
	}
	loc := m.mapperFor(r.Core).Locate(r.Addr)
	m.seq++
	m.inflight++
	ch.enqueue(r, loc, m.seq)
	if m.obs != nil {
		m.obs.Emit(obs.Event{Cycle: now, Kind: obs.KindDRAMEnqueue, Core: int32(r.Core),
			Unit: int32(loc.Channel), A: int64(len(ch.queue))})
	}
	if m.OnEnqueue != nil {
		m.OnEnqueue(now, loc.Channel)
	}
	return true
}

// complete finishes r, whose burst on channel ch retired at cycle done:
// the device's accounting and hooks run around r's own Done, which is
// left as the requester set it so admission allocates nothing.
func (m *Memory) complete(ch int, done clock.Global, r *mem.Request) {
	m.inflight--
	if m.obs != nil {
		m.obs.Emit(obs.Event{Cycle: done, Kind: obs.KindTransfer, Core: int32(r.Core),
			Unit: int32(ch), A: int64(r.Size), B: int64(r.Class)})
	}
	if m.OnTransfer != nil {
		m.OnTransfer(done, r.Core, int(r.Size), r.Class)
	}
	r.Complete(done)
	if m.OnComplete != nil {
		m.OnComplete(done, r)
	}
}

// Tick advances every channel controller by one global cycle.
func (m *Memory) Tick(now clock.Global) {
	for _, ch := range m.channels {
		ch.tick(now)
	}
}

// Channels returns the number of channels in the device.
func (m *Memory) Channels() int { return len(m.channels) }

// TickChannel advances a single channel controller by one global cycle.
// The event-driven kernel uses it to tick only channels with work;
// ticking an idle channel is a no-op, so over-ticking is always safe.
func (m *Memory) TickChannel(ch int, now clock.Global) { m.channels[ch].tick(now) }

// ChannelNextEventAfter returns the earliest future cycle at which
// channel ch needs ticking (see the device-wide NextEventAfter for the
// contract: queued commands are cycle-by-cycle, completions and refresh
// deadlines are absolute bounds).
func (m *Memory) ChannelNextEventAfter(ch int, now clock.Global) clock.Global {
	return m.channels[ch].nextEventAfter(now)
}

// Busy reports whether any channel has queued or in-flight work.
func (m *Memory) Busy() bool { return m.inflight > 0 }

// NextEventAfter returns the earliest future cycle at which the device
// needs ticking. Every channel is consulted — even one with no queued
// or in-flight work has refresh deadlines that bound how far the system
// may fast-forward. With no work and no deadlines it returns a
// far-future sentinel.
func (m *Memory) NextEventAfter(now clock.Global) clock.Global {
	var next clock.Global = clock.FarFuture
	for _, ch := range m.channels {
		e := ch.nextEventAfter(now)
		if e <= now+1 {
			return e
		}
		if e < next {
			next = e
		}
	}
	return next
}

// SkipTo is a no-op: NextEventAfter already refuses to fast-forward
// past any completion or refresh deadline, so a skipped window contains
// no channel state change and there is no bookkeeping to catch up. It
// exists to complete the NextEventAfter/SkipTo fast-forward protocol.
func (m *Memory) SkipTo(now clock.Global) {}

// Stats aggregates counters across channels.
type Stats struct {
	PerChannel []ChannelStats
}

// Totals sums the per-channel counters.
func (s Stats) Totals() ChannelStats {
	var t ChannelStats
	for _, c := range s.PerChannel {
		t.Reads += c.Reads
		t.Writes += c.Writes
		t.RowHits += c.RowHits
		t.RowMisses += c.RowMisses
		t.Activates += c.Activates
		t.Precharges += c.Precharges
		t.Refreshes += c.Refreshes
		t.BytesMoved += c.BytesMoved
		t.BusBusyCycles += c.BusBusyCycles
		t.QueueFullRejects += c.QueueFullRejects
	}
	return t
}

// RowHitRate returns row hits / (hits + misses), or 0 with no traffic.
func (s Stats) RowHitRate() float64 {
	t := s.Totals()
	if t.RowHits+t.RowMisses == 0 {
		return 0
	}
	return float64(t.RowHits) / float64(t.RowHits+t.RowMisses)
}

// Stats snapshots the current counters.
func (m *Memory) Stats() Stats {
	out := Stats{PerChannel: make([]ChannelStats, len(m.channels))}
	for i, ch := range m.channels {
		out.PerChannel[i] = ch.stats
	}
	return out
}

// String describes the device.
func (m *Memory) String() string {
	return fmt.Sprintf("%s: %d ch x %d banks, peak %.1f GB/s",
		m.cfg.Name, m.cfg.Channels, m.cfg.BanksPerChannel(), m.cfg.PeakBandwidth()/1e9)
}
