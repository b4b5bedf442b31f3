package dram

import (
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/invariant"
	"mnpusim/internal/mem"
)

// addrOnChannel returns the n-th block address, counting from start,
// that mp routes to channel ch.
func addrOnChannel(t testing.TB, mp *Mapper, ch int, start uint64, n int) uint64 {
	t.Helper()
	for a := start; a < start+1<<24; a += 64 {
		if mp.Locate(a).Channel == ch {
			if n == 0 {
				return a
			}
			n--
		}
	}
	t.Fatalf("no address on channel %d", ch)
	return 0
}

// TestRejectedRequestAdmittedWithFreshLocation refuses a request on a
// full channel several times, then admits it, and checks that the
// request adds exactly one to that channel's QueueFullRejects however
// often it is refused, and that the admitted request queues the
// location a fresh decode gives.
func TestRejectedRequestAdmittedWithFreshLocation(t *testing.T) {
	cfg := HBM2(4)
	cfg.QueueDepth = 2
	set := []int{1, 2, 3}
	tm := newTestMemory(t, cfg)
	if err := tm.m.SetCoreChannels(0, set); err != nil {
		t.Fatal(err)
	}
	fresh := NewMapper(cfg, set)
	const target = 2
	for i := 0; i < cfg.QueueDepth; i++ {
		if !tm.m.Enqueue(tm.now, tm.request(0, addrOnChannel(t, fresh, target, 0, i), mem.Read, nil)) {
			t.Fatalf("fill request %d refused", i)
		}
	}
	addr := addrOnChannel(t, fresh, target, 0, cfg.QueueDepth)
	r := tm.request(0, addr, mem.Read, nil)
	const refusals = 5
	for i := 1; i <= refusals; i++ {
		if tm.m.Enqueue(tm.now, r) {
			t.Fatalf("attempt %d admitted into a full channel", i)
		}
		st := tm.m.Stats()
		for ch, cs := range st.PerChannel {
			want := int64(0)
			if ch == target {
				want = 1
			}
			if cs.QueueFullRejects != want {
				t.Fatalf("after %d refusals channel %d counts %d rejects, want %d", i, ch, cs.QueueFullRejects, want)
			}
		}
	}
	if r.DRAMChannel != target+1 {
		t.Errorf("cached channel field = %d, want %d", r.DRAMChannel, target+1)
	}
	for !tm.m.CanAccept(0, addr) {
		tm.m.Tick(tm.now)
		tm.now++
		if tm.now > 1000 {
			t.Fatal("channel never freed a slot")
		}
	}
	if !tm.m.Enqueue(tm.now, r) {
		t.Fatal("request refused after a slot freed")
	}
	q := tm.m.channels[target].queue
	if got, want := q[len(q)-1].loc, fresh.Locate(addr); got != want {
		t.Errorf("admitted location %+v, fresh decode %+v", got, want)
	}
	if got := tm.m.Stats().PerChannel[target].QueueFullRejects; got != 1 {
		t.Errorf("admission changed the reject count to %d, want 1", got)
	}
}

// TestQueueFullRejectsCountsRequests checks that QueueFullRejects counts
// refused requests, not refused attempts: one request refused N times
// counts once, and a second refused request counts once more.
func TestQueueFullRejectsCountsRequests(t *testing.T) {
	cfg := HBM2(1)
	cfg.QueueDepth = 1
	tm := newTestMemory(t, cfg)
	if !tm.m.Enqueue(tm.now, tm.request(0, 0, mem.Read, nil)) {
		t.Fatal("fill request refused")
	}
	a := tm.request(0, 64, mem.Read, nil)
	for i := 0; i < 10; i++ {
		if tm.m.Enqueue(tm.now, a) {
			t.Fatal("full queue admitted a request")
		}
	}
	if got := tm.m.Stats().Totals().QueueFullRejects; got != 1 {
		t.Errorf("one request refused 10 times counts %d rejects, want 1", got)
	}
	b := tm.request(0, 128, mem.Read, nil)
	for i := 0; i < 3; i++ {
		tm.m.Enqueue(tm.now, b)
		tm.m.Enqueue(tm.now, a)
	}
	if got := tm.m.Stats().Totals().QueueFullRejects; got != 2 {
		t.Errorf("two refused requests count %d rejects, want 2", got)
	}
}

// TestStaleChannelCacheTrips checks that, with -tags=invariants, Enqueue
// refuses to trust a cached channel that disagrees with the address.
func TestStaleChannelCacheTrips(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("needs -tags=invariants")
	}
	cfg := HBM2(4)
	tm := newTestMemory(t, cfg)
	addr := addrOnChannel(t, tm.m.mapperFor(0), 1, 0, 0)
	r := tm.request(0, addr, mem.Read, nil)
	r.DRAMChannel = 3 + 1
	defer func() {
		if recover() == nil {
			t.Error("stale cached channel accepted")
		}
	}()
	tm.m.Enqueue(0, r)
}

// locSink keeps the compiler from discarding the benchmarked decode.
var locSink Location

func BenchmarkMapperLocate(b *testing.B) {
	mp := NewMapper(HBM2(8), []int{0, 1, 2, 3, 4, 5, 6, 7})
	for i := 0; i < b.N; i++ {
		locSink = mp.Locate(uint64(i) * 64)
	}
}

// BenchmarkEnqueueRejectedFull times the MMU drain's common case: a
// retry of a request whose channel queue is full.
func BenchmarkEnqueueRejectedFull(b *testing.B) {
	cfg := HBM2(8)
	m := MustNew(cfg)
	mp := m.mapperFor(0)
	for i := 0; i < cfg.QueueDepth; i++ {
		if !m.Enqueue(0, &mem.Request{Addr: addrOnChannel(b, mp, 0, 0, i), Size: 64}) {
			b.Fatal("fill refused")
		}
	}
	r := &mem.Request{Addr: addrOnChannel(b, mp, 0, 0, cfg.QueueDepth), Size: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Enqueue(clock.Global(i), r) {
			b.Fatal("full channel admitted a request")
		}
	}
}
