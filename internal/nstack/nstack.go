// Package nstack is iPipe's shim customized networking stack (Appendix
// B.1, Table 4's Nstack API): simple Layer-2/Layer-3 protocol
// processing — packet encapsulation and decapsulation, checksum
// generation and verification — built over the packet-processing
// accelerators on the SmartNIC. Work queue entries (WQEs) carry a
// packet plus metadata through the NIC, mirroring the OCTEON firmware
// objects the LiquidIOII exposes.
//
// The wire formats are real: Ethernet II framing, IPv4 headers with a
// correct internet checksum, and UDP.
package nstack

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Header sizes.
const (
	ethHeaderLen  = 14
	ipv4HeaderLen = 20
	udpHeaderLen  = 8
	// headerOverhead is the full encapsulation cost of a UDP datagram.
	headerOverhead = ethHeaderLen + ipv4HeaderLen + udpHeaderLen
)

// etherTypeIPv4 is the only EtherType the shim stack speaks.
const etherTypeIPv4 = 0x0800

// ProtoUDP is the IPv4 protocol number for UDP.
const ProtoUDP = 17

// Errors surfaced by decapsulation.
var (
	errTruncated   = errors.New("nstack: truncated packet")
	errEtherType   = errors.New("nstack: not IPv4")
	errBadVersion  = errors.New("nstack: bad IP version/IHL")
	errBadChecksum = errors.New("nstack: IPv4 header checksum mismatch")
	errNotUDP      = errors.New("nstack: not UDP")
	errBadLength   = errors.New("nstack: inconsistent lengths")
)

// MAC is an Ethernet address.
type MAC [6]byte

// String renders the address in colon-hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Addr is an endpoint: MAC, IPv4 address, UDP port.
type Addr struct {
	MAC  MAC
	IP   uint32
	Port uint16
}

// Headers describes a decapsulated packet.
type Headers struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	TTL              uint8
}

// WQE is a work queue entry: the unit the PKI hands to NIC cores
// (nstack_new_wqe / nstack_get_wqe in Table 4).
type WQE struct {
	// Packet is the full frame.
	Packet []byte
	// Headers are filled by Decap.
	Headers Headers
	// Payload aliases the UDP payload inside Packet after Decap.
	Payload []byte
}

// NewWQE wraps a frame (nstack_new_wqe).
func NewWQE(frame []byte) *WQE {
	return &WQE{Packet: frame}
}

// ipv4Checksum computes the internet checksum over a header.
func ipv4Checksum(h []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(h); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(h[i : i+2]))
	}
	if len(h)%2 == 1 {
		sum += uint32(h[len(h)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Encap builds a complete Ethernet/IPv4/UDP frame around payload
// (nstack_hdr_cap + header construction). The IPv4 checksum is real;
// UDP checksum is zero (legal for IPv4, and what the firmware's
// hardware checksum offload produces when disabled).
func Encap(src, dst Addr, payload []byte, ttl uint8) []byte {
	frame := make([]byte, headerOverhead+len(payload))
	// Ethernet.
	copy(frame[0:6], dst.MAC[:])
	copy(frame[6:12], src.MAC[:])
	binary.BigEndian.PutUint16(frame[12:14], etherTypeIPv4)
	// IPv4.
	ip := frame[ethHeaderLen : ethHeaderLen+ipv4HeaderLen]
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipv4HeaderLen+udpHeaderLen+len(payload)))
	ip[8] = ttl
	ip[9] = ProtoUDP
	binary.BigEndian.PutUint32(ip[12:16], src.IP)
	binary.BigEndian.PutUint32(ip[16:20], dst.IP)
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint16(ip[10:12], ipv4Checksum(ip))
	// UDP.
	udp := frame[ethHeaderLen+ipv4HeaderLen : ethHeaderLen+ipv4HeaderLen+udpHeaderLen]
	binary.BigEndian.PutUint16(udp[0:2], src.Port)
	binary.BigEndian.PutUint16(udp[2:4], dst.Port)
	binary.BigEndian.PutUint16(udp[4:6], uint16(udpHeaderLen+len(payload)))
	copy(frame[headerOverhead:], payload)
	return frame
}

// Decap parses and verifies a frame in place, filling the WQE's Headers
// and Payload (nstack_recv's parsing half).
func (w *WQE) Decap() error {
	f := w.Packet
	if len(f) < headerOverhead {
		return errTruncated
	}
	if binary.BigEndian.Uint16(f[12:14]) != etherTypeIPv4 {
		return errEtherType
	}
	ip := f[ethHeaderLen:]
	if ip[0] != 0x45 {
		return errBadVersion
	}
	if ipv4Checksum(ip[:ipv4HeaderLen]) != 0 {
		return errBadChecksum
	}
	if ip[9] != ProtoUDP {
		return errNotUDP
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen < ipv4HeaderLen+udpHeaderLen || ethHeaderLen+totalLen > len(f) {
		return errBadLength
	}
	udp := ip[ipv4HeaderLen:]
	udpLen := int(binary.BigEndian.Uint16(udp[4:6]))
	if udpLen < udpHeaderLen || ipv4HeaderLen+udpLen > totalLen {
		return errBadLength
	}
	copy(w.Headers.DstMAC[:], f[0:6])
	copy(w.Headers.SrcMAC[:], f[6:12])
	w.Headers.SrcIP = binary.BigEndian.Uint32(ip[12:16])
	w.Headers.DstIP = binary.BigEndian.Uint32(ip[16:20])
	w.Headers.TTL = ip[8]
	w.Headers.SrcPort = binary.BigEndian.Uint16(udp[0:2])
	w.Headers.DstPort = binary.BigEndian.Uint16(udp[2:4])
	w.Payload = udp[udpHeaderLen:udpLen][:udpLen-udpHeaderLen]
	return nil
}

// reverse swaps the frame's source and destination at every layer and
// recomputes the IPv4 checksum — the echo server's retransmit path.
func (w *WQE) reverse() error {
	f := w.Packet
	if len(f) < headerOverhead {
		return errTruncated
	}
	for i := 0; i < 6; i++ {
		f[i], f[6+i] = f[6+i], f[i]
	}
	ip := f[ethHeaderLen:]
	for i := 0; i < 4; i++ {
		ip[12+i], ip[16+i] = ip[16+i], ip[12+i]
	}
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint16(ip[10:12], ipv4Checksum(ip[:ipv4HeaderLen]))
	udp := ip[ipv4HeaderLen:]
	for i := 0; i < 2; i++ {
		udp[i], udp[2+i] = udp[2+i], udp[i]
	}
	return nil
}
