package microbench

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/actor"
	"repro/internal/sim"
	"repro/internal/spec"
)

func TestCountMinNeverUndercounts(t *testing.T) {
	c := NewCountMin(4, 1024)
	truth := map[string]uint32{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("flow-%d", i%200)
		c.Add([]byte(k))
		truth[k]++
	}
	for k, want := range truth {
		if got := c.Estimate([]byte(k)); got < want {
			t.Fatalf("sketch undercounted %s: %d < %d", k, got, want)
		}
	}
}

func TestCountMinAccurateWhenSparse(t *testing.T) {
	c := NewCountMin(4, 4096)
	for i := 0; i < 100; i++ {
		c.Add([]byte("solo"))
	}
	if got := c.Estimate([]byte("solo")); got != 100 {
		t.Fatalf("sparse estimate %d, want exactly 100", got)
	}
	if got := c.Estimate([]byte("never")); got != 0 {
		t.Fatalf("unseen key estimate %d", got)
	}
}

func TestCountMinDimsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCountMin(0, 10)
}

func TestKVCacheEviction(t *testing.T) {
	k := NewKVCache(3)
	for i := 0; i < 5; i++ {
		k.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if k.Len() != 3 {
		t.Fatalf("Len = %d, want capped at 3", k.Len())
	}
	if _, ok := k.Get("k0"); ok {
		t.Fatal("oldest entry not evicted")
	}
	if v, ok := k.Get("k4"); !ok || v[0] != 4 {
		t.Fatal("newest entry lost")
	}
	if k.Hits != 1 || k.Miss != 1 {
		t.Fatalf("hit/miss accounting: %d/%d", k.Hits, k.Miss)
	}
	k.Del("k4")
	if _, ok := k.Get("k4"); ok {
		t.Fatal("delete ineffective")
	}
}

func TestKVCacheOverwriteDoesNotGrow(t *testing.T) {
	k := NewKVCache(2)
	k.Put("a", []byte{1})
	k.Put("a", []byte{2})
	if k.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", k.Len())
	}
	if v, _ := k.Get("a"); v[0] != 2 {
		t.Fatal("overwrite lost")
	}
}

func TestQuicksortDescProperty(t *testing.T) {
	f := func(vs []uint32) bool {
		a := append([]uint32(nil), vs...)
		quicksortDesc(a)
		ref := append([]uint32(nil), vs...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] > ref[j] })
		if len(a) != len(ref) {
			return false
		}
		for i := range a {
			if a[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopRanker(t *testing.T) {
	r := NewTopRanker(3)
	r.Offer(5, 1, 9)
	r.Offer(7, 2)
	top := r.Top()
	want := []uint32{9, 7, 5}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("Top = %v, want %v", top, want)
		}
	}
}

func TestLeakyBucket(t *testing.T) {
	l := NewLeakyBucket(1000, 100) // 1000 units/s, burst 100
	if !l.Allow(0, 100) {
		t.Fatal("burst rejected")
	}
	if l.Allow(0, 1) {
		t.Fatal("over-burst admitted")
	}
	// After 50ms, 50 units drained.
	if !l.Allow(50*sim.Millisecond, 50) {
		t.Fatal("drained capacity rejected")
	}
	if l.Allow(50*sim.Millisecond, 1) {
		t.Fatal("bucket should be full again")
	}
	if l.Passed != 2 || l.Dropped != 2 {
		t.Fatalf("accounting: %d/%d", l.Passed, l.Dropped)
	}
}

func TestLPMTrieLongestMatch(t *testing.T) {
	tr := NewLPMTrie()
	tr.insert(0x0a000000, 8, 1)  // 10/8 → 1
	tr.insert(0x0a010000, 16, 2) // 10.1/16 → 2
	tr.insert(0x0a010100, 24, 3) // 10.1.1/24 → 3
	cases := map[uint32]uint32{
		0x0a000001: 1,
		0x0a010001: 2,
		0x0a010101: 3,
		0x0a020001: 1,
	}
	for addr, want := range cases {
		hop, ok := tr.Lookup(addr)
		if !ok || hop != want {
			t.Fatalf("Lookup(%08x) = %d %v, want %d", addr, hop, ok, want)
		}
	}
	if _, ok := tr.Lookup(0x0b000000); ok {
		t.Fatal("no-route lookup matched")
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestLPMDefaultRoute(t *testing.T) {
	tr := NewLPMTrie()
	tr.insert(0, 0, 99) // default route
	hop, ok := tr.Lookup(0xdeadbeef)
	if !ok || hop != 99 {
		t.Fatal("default route broken")
	}
}

func TestMaglevBalanceAndConsistency(t *testing.T) {
	backends := []string{"b0", "b1", "b2", "b3", "b4"}
	m := NewMaglev(backends, 1021)
	spread := m.spread()
	if len(spread) != 5 {
		t.Fatalf("backends used: %d", len(spread))
	}
	// Maglev guarantees near-perfect balance: within a few percent.
	min, max := 1<<30, 0
	for _, n := range spread {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if float64(max-min) > 0.05*float64(max) {
		t.Fatalf("imbalance: min=%d max=%d", min, max)
	}
	// Stable: same flow → same backend.
	b1, _ := m.Pick(12345)
	b2, _ := m.Pick(12345)
	if b1 != b2 {
		t.Fatal("unstable pick")
	}
}

func TestMaglevMinimalDisruption(t *testing.T) {
	all := []string{"b0", "b1", "b2", "b3"}
	before := NewMaglev(all, 1021)
	after := NewMaglev(all[:3], 1021) // b3 removed
	moved := 0
	for flow := uint64(0); flow < 2000; flow++ {
		a, _ := before.Pick(flow)
		b, _ := after.Pick(flow)
		if a != "b3" && a != b {
			moved++
		}
	}
	// Consistent hashing: only a small fraction of surviving-backend
	// flows move.
	if moved > 400 {
		t.Fatalf("%d of ~1500 surviving flows moved", moved)
	}
}

func TestMaglevEmptyBackends(t *testing.T) {
	m := NewMaglev(nil, 97)
	if _, ok := m.Pick(1); ok {
		t.Fatal("empty pool returned a backend")
	}
}

func TestPFabricSRPTOrder(t *testing.T) {
	p := NewPFabric()
	p.Enqueue(300, 3)
	p.Enqueue(100, 1)
	p.Enqueue(200, 2)
	p.Enqueue(100, 11) // same priority FIFO
	want := []uint64{1, 11, 2, 3}
	for i, w := range want {
		v, ok := p.Dequeue()
		if !ok || v != w {
			t.Fatalf("dequeue %d = %d %v, want %d", i, v, ok, w)
		}
	}
	if _, ok := p.Dequeue(); ok {
		t.Fatal("empty dequeue succeeded")
	}
}

func TestPFabricLen(t *testing.T) {
	p := NewPFabric()
	for i := uint32(0); i < 50; i++ {
		p.Enqueue(i%5, uint64(i))
	}
	if p.Len() != 50 {
		t.Fatalf("Len = %d", p.Len())
	}
	for i := 0; i < 50; i++ {
		p.Dequeue()
	}
	if p.Len() != 0 {
		t.Fatalf("Len after drain = %d", p.Len())
	}
}

func TestBayesLearnsSeparableClasses(t *testing.T) {
	b := NewBayes(2, 4, 16)
	// Class 0: low feature values; class 1: high.
	for i := 0; i < 500; i++ {
		b.train(0, []int{i % 4, i % 3, i % 5, i % 2})
		b.train(1, []int{10 + i%4, 11 + i%3, 12 + i%2, 13 + i%3})
	}
	if got := b.Classify([]int{1, 2, 3, 1}); got != 0 {
		t.Fatalf("low features classified as %d", got)
	}
	if got := b.Classify([]int{12, 12, 13, 14}); got != 1 {
		t.Fatalf("high features classified as %d", got)
	}
}

func TestChainRep(t *testing.T) {
	c := NewChainRep([]string{"head", "mid", "tail"})
	if tail := c.Replicate([]byte("pkt")); tail != 2 {
		t.Fatalf("commit at %d", tail)
	}
	for i, n := range c.Acked {
		if n != 1 {
			t.Fatalf("replica %d acked %d", i, n)
		}
	}
}

func TestAllWorkloadsHaveProfiles(t *testing.T) {
	ws := []Workload{
		NewCountMin(4, 64), NewKVCache(16), NewTopRanker(4),
		NewLeakyBucket(1e6, 1e4), NewLPMTrie(),
		NewMaglev([]string{"a", "b"}, 97), NewPFabric(),
		NewBayes(2, 4, 8), NewChainRep([]string{"a"}),
	}
	for _, w := range ws {
		if _, ok := spec.WorkloadByName(w.Name()); !ok {
			t.Errorf("workload %q has no Table 3 profile", w.Name())
		}
		// Process must be safe on arbitrary small payloads.
		w.Process([]byte{1, 2, 3})
		w.Process(nil)
		w.Process(make([]byte, 64))
	}
}

func TestWorkloadActorChargesProfile(t *testing.T) {
	a := Actor(1, NewCountMin(4, 64))
	prof, _ := spec.WorkloadByName("Flow monitor")
	cost := a.OnMessage(nopCtx{}, actor.Msg{Data: make([]byte, 1024)})
	if cost != prof.ExecLat1KB {
		t.Fatalf("1KB cost %v, want Table 3's %v", cost, prof.ExecLat1KB)
	}
	small := a.OnMessage(nopCtx{}, actor.Msg{Data: make([]byte, 16)})
	if small >= cost {
		t.Fatal("small requests should cost less")
	}
}

func TestWorkloadActorUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unprofiled workload")
		}
	}()
	Actor(1, bogusWorkload{})
}

type bogusWorkload struct{}

func (bogusWorkload) Name() string              { return "Nope" }
func (bogusWorkload) Process(pkt []byte) uint64 { return 0 }

type nopCtx struct{}

func (nopCtx) Now() sim.Time                                 { return 0 }
func (nopCtx) Send(dst actor.ID, m actor.Msg)                {}
func (nopCtx) Reply(m actor.Msg)                             {}
func (nopCtx) Alloc(size int) (uint64, error)                { return 1, nil }
func (nopCtx) Free(obj uint64) error                         { return nil }
func (nopCtx) ObjRead(o uint64, off, n int) ([]byte, error)  { return make([]byte, n), nil }
func (nopCtx) ObjWrite(o uint64, off int, p []byte) error    { return nil }
func (nopCtx) ObjMigrate(o uint64) (int, error)              { return 0, nil }
func (nopCtx) Accel(name string, b, bs int) (sim.Time, bool) { return 0, false }

func binaryPut(v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return b[:]
}

func TestTopRankerProcess(t *testing.T) {
	r := NewTopRanker(2)
	payload := append(binaryPut(5), append(binaryPut(50), binaryPut(10)...)...)
	if got := r.Process(payload); got != 50 {
		t.Fatalf("Process = %d", got)
	}
}
