package nstack

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

var (
	srcAddr = Addr{MAC: MAC{0x02, 0, 0, 0, 0, 1}, IP: 0x0a000001, Port: 7000}
	dstAddr = Addr{MAC: MAC{0x02, 0, 0, 0, 0, 2}, IP: 0x0a000002, Port: 9000}
)

func TestEncapDecapRoundTrip(t *testing.T) {
	payload := []byte("hello smartnic")
	frame := Encap(srcAddr, dstAddr, payload, 64)
	if len(frame) != headerOverhead+len(payload) {
		t.Fatalf("frame len %d", len(frame))
	}
	w := NewWQE(frame)
	if err := w.Decap(); err != nil {
		t.Fatal(err)
	}
	h := w.Headers
	if h.SrcIP != srcAddr.IP || h.DstIP != dstAddr.IP {
		t.Fatalf("IPs: %x → %x", h.SrcIP, h.DstIP)
	}
	if h.SrcPort != 7000 || h.DstPort != 9000 {
		t.Fatalf("ports: %d → %d", h.SrcPort, h.DstPort)
	}
	if h.srcMAC != srcAddr.MAC || h.dstMAC != dstAddr.MAC {
		t.Fatalf("MACs: %v → %v", h.srcMAC, h.dstMAC)
	}
	if h.ttl != 64 {
		t.Fatalf("TTL %d", h.ttl)
	}
	if !bytes.Equal(w.payload, payload) {
		t.Fatalf("payload %q", w.payload)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	frame := Encap(srcAddr, dstAddr, []byte("x"), 64)
	frame[ethHeaderLen+15] ^= 0x40 // flip a bit in the source IP
	w := NewWQE(frame)
	if err := w.Decap(); !errors.Is(err, errBadChecksum) {
		t.Fatalf("err = %v, want checksum mismatch", err)
	}
}

func TestDecapRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"short":     make([]byte, 10),
		"not-ipv4":  make([]byte, headerOverhead+4),
		"truncated": Encap(srcAddr, dstAddr, make([]byte, 100), 64)[:30],
	}
	for name, frame := range cases {
		w := NewWQE(frame)
		if err := w.Decap(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Wrong EtherType specifically.
	f := Encap(srcAddr, dstAddr, []byte("x"), 64)
	f[12], f[13] = 0x86, 0xdd // IPv6
	if err := NewWQE(f).Decap(); !errors.Is(err, errEtherType) {
		t.Errorf("ethertype err = %v", err)
	}
	// Non-UDP protocol.
	f = Encap(srcAddr, dstAddr, []byte("x"), 64)
	ip := f[ethHeaderLen:]
	ip[9] = 6 // TCP
	// Fix the checksum for the modified header so the proto check fires.
	ip[10], ip[11] = 0, 0
	c := ipv4Checksum(ip[:ipv4HeaderLen])
	ip[10], ip[11] = byte(c>>8), byte(c)
	if err := NewWQE(f).Decap(); !errors.Is(err, errNotUDP) {
		t.Errorf("proto err = %v", err)
	}
}

func TestInconsistentLengthsRejected(t *testing.T) {
	f := Encap(srcAddr, dstAddr, []byte("abcdef"), 64)
	ip := f[ethHeaderLen:]
	// Claim a total length beyond the frame.
	ip[2], ip[3] = 0x40, 0x00
	ip[10], ip[11] = 0, 0
	c := ipv4Checksum(ip[:ipv4HeaderLen])
	ip[10], ip[11] = byte(c>>8), byte(c)
	if err := NewWQE(f).Decap(); !errors.Is(err, errBadLength) {
		t.Fatalf("err = %v, want bad length", err)
	}
}

func TestReverseEchoPath(t *testing.T) {
	frame := Encap(srcAddr, dstAddr, []byte("ping"), 64)
	w := NewWQE(frame)
	if err := w.reverse(); err != nil {
		t.Fatal(err)
	}
	if err := w.Decap(); err != nil {
		t.Fatalf("reversed frame invalid: %v (checksum must be recomputed)", err)
	}
	h := w.Headers
	if h.SrcIP != dstAddr.IP || h.DstIP != srcAddr.IP {
		t.Fatal("IPs not swapped")
	}
	if h.SrcPort != 9000 || h.DstPort != 7000 {
		t.Fatal("ports not swapped")
	}
	if h.srcMAC != dstAddr.MAC || h.dstMAC != srcAddr.MAC {
		t.Fatal("MACs not swapped")
	}
	if string(w.payload) != "ping" {
		t.Fatal("payload damaged by reverse")
	}
}

// Property: Encap→Decap is the identity on (addresses, payload) for
// arbitrary payloads and TTLs.
func TestEncapDecapProperty(t *testing.T) {
	f := func(payload []byte, ttl uint8, sp, dp uint16, sip, dip uint32) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		src := Addr{MAC: MAC{1, 2, 3, 4, 5, 6}, IP: sip, Port: sp}
		dst := Addr{MAC: MAC{6, 5, 4, 3, 2, 1}, IP: dip, Port: dp}
		w := NewWQE(Encap(src, dst, payload, ttl))
		if err := w.Decap(); err != nil {
			return false
		}
		return w.Headers.SrcIP == sip && w.Headers.DstIP == dip &&
			w.Headers.SrcPort == sp && w.Headers.DstPort == dp &&
			w.Headers.ttl == ttl && bytes.Equal(w.payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: single-bit flips anywhere in the IPv4 header are caught.
func TestChecksumCatchesHeaderBitflips(t *testing.T) {
	f := func(bit uint16) bool {
		frame := Encap(srcAddr, dstAddr, []byte("payload"), 64)
		idx := ethHeaderLen + int(bit)%ipv4HeaderLen
		mask := byte(1 << (bit % 8))
		frame[idx] ^= mask
		w := NewWQE(frame)
		err := w.Decap()
		// Flips in version/IHL trip errBadVersion; everything else must
		// trip the checksum (or length consistency).
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Fatalf("String = %s", m.String())
	}
}
