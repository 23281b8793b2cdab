// Package dataplane implements the emulated forwarding plane: IPv4-like
// packets, point-to-point links with latency and loss, longest-prefix
// FIB forwarding with TTL handling and ICMP errors, unicast reverse-path
// (anti-spoofing) checks, and the ping/traceroute measurement primitives
// the testbed's data-plane experiments are built from.
//
// Forwarding allocates nothing and takes no exclusive lock: counters are
// atomics, a router's control state is an immutable snapshot, the FIB is
// read-locked once per lookup. A packet handed to Receive is valid only
// until Receive returns; keep a Clone (DESIGN.md §16).
package dataplane

import (
	"fmt"
	"net/netip"
	"sync/atomic"
)

// Proto identifies the payload protocol of a packet.
type Proto uint8

// Protocol numbers (a subset; values match IANA where applicable).
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// ICMPType is the subset of ICMP semantics the emulation needs.
type ICMPType uint8

// ICMP types.
const (
	ICMPNone         ICMPType = 0
	ICMPEchoRequest  ICMPType = 8
	ICMPEchoReply    ICMPType = 1 // deliberate: 0 is taken by ICMPNone
	ICMPTimeExceeded ICMPType = 11
	ICMPUnreachable  ICMPType = 3
)

// DefaultTTL is the initial TTL of locally originated packets.
const DefaultTTL = 64

var packetSeq atomic.Uint64

// Packet is one emulated datagram.
type Packet struct {
	ID      uint64
	Src     netip.Addr
	Dst     netip.Addr
	TTL     uint8
	Proto   Proto
	ICMP    ICMPType
	SrcPort uint16
	DstPort uint16
	// Seq correlates echo requests/replies and traceroute probes.
	Seq int
	// Payload is opaque application data.
	Payload []byte
	// Trace accumulates the interface addresses the packet traversed —
	// the emulation's record-route, used by tests and measurements.
	Trace []netip.Addr
	// Orig carries the triggering packet's ID inside ICMP errors.
	Orig uint64
}

// NewPacket builds a packet with a fresh ID and default TTL.
func NewPacket(src, dst netip.Addr, proto Proto) *Packet {
	return &Packet{
		ID:    packetSeq.Add(1),
		Src:   src,
		Dst:   dst,
		TTL:   DefaultTTL,
		Proto: proto,
	}
}

// Clone deep-copies the packet (links fork on delivery to taps).
func (p *Packet) Clone() *Packet {
	c := *p
	c.Payload = append([]byte(nil), p.Payload...)
	c.Trace = append([]netip.Addr(nil), p.Trace...)
	return &c
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt %d %s→%s %s ttl=%d", p.ID, p.Src, p.Dst, p.Proto, p.TTL)
}
