package nf

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/actor"
	"repro/internal/nstack"
	"repro/internal/sim"
)

type fakeCtx struct {
	replies []actor.Msg
	accel   bool
}

func (f *fakeCtx) Now() sim.Time                                { return 0 }
func (f *fakeCtx) Send(dst actor.ID, m actor.Msg)               {}
func (f *fakeCtx) Reply(m actor.Msg)                            { f.replies = append(f.replies, m) }
func (f *fakeCtx) Alloc(size int) (uint64, error)               { return 1, nil }
func (f *fakeCtx) Free(obj uint64) error                        { return nil }
func (f *fakeCtx) ObjRead(o uint64, off, n int) ([]byte, error) { return make([]byte, n), nil }
func (f *fakeCtx) ObjWrite(o uint64, off int, p []byte) error   { return nil }
func (f *fakeCtx) ObjMigrate(o uint64) (int, error)             { return 0, nil }

func (f *fakeCtx) Accel(name string, b, bs int) (sim.Time, bool) {
	if !f.accel {
		return 0, false
	}
	return sim.Microsecond, true
}

func TestFiveTupleCodec(t *testing.T) {
	in := FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 80, Proto: 6}
	out, ok := decodeFiveTuple(in.Encode())
	if !ok || out != in {
		t.Fatalf("round trip: %+v", out)
	}
	if _, ok := decodeFiveTuple([]byte{1, 2}); ok {
		t.Fatal("short input accepted")
	}
}

func TestTCAMPriorityAndWildcards(t *testing.T) {
	rules := []Rule{
		{ // specific deny for one host, high priority
			Value:    FiveTuple{SrcIP: 0x0a000005},
			Mask:     FiveTuple{SrcIP: 0xffffffff},
			Priority: 0, Allow: false,
		},
		{ // allow the enclosing /16
			Value:    FiveTuple{SrcIP: 0x0a000000},
			Mask:     FiveTuple{SrcIP: 0xffff0000},
			Priority: 1, Allow: true,
		},
		{ // allow TCP port 80 from anywhere
			Value:    FiveTuple{DstPort: 80, Proto: 6},
			Mask:     FiveTuple{DstPort: 0xffff, Proto: 0xff},
			Priority: 2, Allow: true,
		},
	}
	tc := NewTCAM(rules)
	allow, _ := tc.match(FiveTuple{SrcIP: 0x0a000005})
	if allow {
		t.Fatal("specific deny shadowed by broader allow")
	}
	allow, _ = tc.match(FiveTuple{SrcIP: 0x0a00ffff})
	if !allow {
		t.Fatal("/16 allow failed")
	}
	allow, _ = tc.match(FiveTuple{SrcIP: 0xc0a80001, DstPort: 80, Proto: 6})
	if !allow {
		t.Fatal("port-80 allow failed")
	}
	allow, _ = tc.match(FiveTuple{SrcIP: 0xc0a80001, DstPort: 22, Proto: 6})
	if allow {
		t.Fatal("default should deny")
	}
}

func TestTCAMScanDepth(t *testing.T) {
	tc := NewTCAM(UniformRules(8192))
	if len(tc.rules) != 8192 {
		t.Fatalf("%d rules, want 8192", len(tc.rules))
	}
	_, depth1 := tc.match(FiveTuple{SrcIP: 0 << 16})        // rule 0
	_, depthN := tc.match(FiveTuple{SrcIP: 0xdead0000 + 1}) // no match
	if depth1 != 1 {
		t.Fatalf("first-rule match scanned %d", depth1)
	}
	if depthN != 8192 {
		t.Fatalf("miss scanned %d, want full table", depthN)
	}
}

func TestTCAMPriorityOrderIndependentOfInput(t *testing.T) {
	f := func(seed uint8) bool {
		// Insert rules in rotated order; match result must not change.
		base := UniformRules(32)
		rot := int(seed) % len(base)
		rotated := append(append([]Rule(nil), base[rot:]...), base[:rot]...)
		a, b := NewTCAM(base), NewTCAM(rotated)
		probe := FiveTuple{SrcIP: uint32(seed) << 16}
		ra, _ := a.match(probe)
		rb, _ := b.match(probe)
		return ra == rb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFirewallActorVerdicts(t *testing.T) {
	tc := NewTCAM(UniformRules(64))
	a := NewFirewall(1, tc)
	ctx := &fakeCtx{}
	a.OnMessage(ctx, actor.Msg{Data: FiveTuple{SrcIP: 0}.Encode()})       // rule 0: allow
	a.OnMessage(ctx, actor.Msg{Data: FiveTuple{SrcIP: 1 << 16}.Encode()}) // rule 1: deny
	if len(ctx.replies) != 2 {
		t.Fatalf("replies %d", len(ctx.replies))
	}
	if VerdictOf(ctx.replies[0].Data) != VerdictAllow || VerdictOf(ctx.replies[1].Data) != VerdictDeny {
		t.Fatalf("verdicts: %v %v", ctx.replies[0].Data, ctx.replies[1].Data)
	}
}

func TestFirewallCostGrowsWithScanDepth(t *testing.T) {
	tc := NewTCAM(UniformRules(8192))
	a := NewFirewall(1, tc)
	ctx := &fakeCtx{}
	early := a.OnMessage(ctx, actor.Msg{Data: FiveTuple{SrcIP: 0}.Encode()})
	miss := a.OnMessage(ctx, actor.Msg{Data: FiveTuple{SrcIP: 0xdead0001}.Encode()})
	if miss <= early {
		t.Fatal("full scan should cost more than first-rule hit")
	}
	// §5.7: 8K rules / 1KB packets land in single-digit µs unloaded.
	if miss < 3*sim.Microsecond || miss > 25*sim.Microsecond {
		t.Fatalf("full-scan cost %v outside the paper's range", miss)
	}
}

func TestIPSecSealOpenRoundTrip(t *testing.T) {
	st, err := NewIPSecState(make([]byte, 32), []byte("mac-key"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the quick brown fox")
	sealed := st.seal(7, payload)
	if bytes.Contains(sealed, payload) {
		t.Fatal("ciphertext contains plaintext")
	}
	out, ok := st.Open(7, sealed)
	if !ok || !bytes.Equal(out, payload) {
		t.Fatalf("open: %v %q", ok, out)
	}
	// Wrong sequence (IV) fails authentication.
	if _, ok := st.Open(8, sealed); ok {
		t.Fatal("wrong-seq open succeeded")
	}
	// Tampering fails authentication.
	sealed[0] ^= 1
	if _, ok := st.Open(7, sealed); ok {
		t.Fatal("tampered open succeeded")
	}
}

func TestIPSecKeyValidation(t *testing.T) {
	if _, err := NewIPSecState([]byte("short"), []byte("k")); err == nil {
		t.Fatal("bad AES key accepted")
	}
}

func TestIPSecGatewayUsesAccelerators(t *testing.T) {
	st, _ := NewIPSecState(make([]byte, 32), []byte("k"))
	a := NewIPSecGateway(2, st)

	nic := &fakeCtx{accel: true}
	nicCost := a.OnMessage(nic, actor.Msg{FlowID: 1, Data: make([]byte, 1024)})
	if nicCost != 600*sim.Nanosecond {
		t.Fatalf("NIC path cost %v, not the engines' framing cost: it did not use them", nicCost)
	}
	host := &fakeCtx{accel: false}
	hostCost := a.OnMessage(host, actor.Msg{FlowID: 2, Data: make([]byte, 1024)})
	if n := len(nic.replies) + len(host.replies); n != 2 {
		t.Fatalf("%d replies to 2 packets", n)
	}
	// The handler-returned cost excludes engine waits (charged via ctx),
	// so the host inline path must be the more expensive handler.
	if hostCost <= nicCost {
		t.Fatalf("host inline %v should exceed NIC framing %v", hostCost, nicCost)
	}
	// Both replies carry valid ciphertext.
	for i, r := range []actor.Msg{nic.replies[0], host.replies[0]} {
		if VerdictOf(r.Data) != VerdictAllow {
			t.Fatalf("reply %d verdict", i)
		}
		if _, ok := st.Open(uint64(i+1), r.Data[1:]); !ok {
			t.Fatalf("reply %d ciphertext invalid", i)
		}
	}
}

func TestFirewallParsesRealFrames(t *testing.T) {
	tc := NewTCAM([]Rule{{
		Value:    FiveTuple{DstPort: 9000, Proto: nstack.ProtoUDP},
		Mask:     FiveTuple{DstPort: 0xffff, Proto: 0xff},
		Priority: 0, Allow: true,
	}})
	a := NewFirewall(1, tc)
	ctx := &fakeCtx{}
	src := nstack.Addr{IP: 0x0a000001, Port: 1234}
	dst := nstack.Addr{IP: 0x0a000002, Port: 9000}
	frame := nstack.Encap(src, dst, []byte("payload"), 64)
	a.OnMessage(ctx, actor.Msg{Data: frame})
	if len(ctx.replies) != 1 || VerdictOf(ctx.replies[0].Data) != VerdictAllow {
		t.Fatalf("real-frame classification failed: %v", ctx.replies)
	}
	// A corrupted frame (bad checksum) fails nstack parsing and — being
	// 13+ bytes — falls back to the tuple decoder, classifying garbage
	// as deny-by-default rather than crashing.
	frame[14+13] ^= 0xff // behind the 14-byte Ethernet header
	a.OnMessage(ctx, actor.Msg{Data: frame})
	if len(ctx.replies) != 2 {
		t.Fatal("corrupted frame not answered")
	}
}

func TestTupleFromFrameRejectsGarbage(t *testing.T) {
	if _, ok := tupleFromFrame([]byte("short")); ok {
		t.Fatal("garbage frame parsed")
	}
}
