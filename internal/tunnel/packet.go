package tunnel

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"

	"peering/internal/bufpool"
	"peering/internal/dataplane"
)

// Packet wire format (all big-endian):
//
//	u64 id | 4B src | 4B dst | u8 ttl | u8 proto | u8 icmp |
//	u16 sport | u16 dport | u32 seq | u64 orig | u32 plen | payload
//
// Trace is deliberately not serialized: it is emulation-side metadata
// and must not cross the "wire" (a real tunnel would not carry it).
//
// On the packet channel each packet is preceded by a u32 length
// (streams are byte pipes): [len | header | payload].
const packetHeaderLen = 8 + 4 + 4 + 1 + 1 + 1 + 2 + 2 + 4 + 8 + 4

// lenPrefix is the size of the per-packet length on the packet channel.
const lenPrefix = 4

// appendPacket appends pkt's wire encoding to dst. It is the one
// encoder: EncodePacket hands it a fresh slice, Send a pooled one.
func appendPacket(dst []byte, pkt *dataplane.Packet) ([]byte, error) {
	if !pkt.Src.Is4() || !pkt.Dst.Is4() {
		return nil, fmt.Errorf("tunnel: packet %v→%v is not IPv4", pkt.Src, pkt.Dst)
	}
	src, dst4 := pkt.Src.As4(), pkt.Dst.As4()
	dst = binary.BigEndian.AppendUint64(dst, pkt.ID)
	dst = append(dst, src[:]...)
	dst = append(dst, dst4[:]...)
	dst = append(dst, pkt.TTL, byte(pkt.Proto), byte(pkt.ICMP))
	dst = binary.BigEndian.AppendUint16(dst, pkt.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, pkt.DstPort)
	dst = binary.BigEndian.AppendUint32(dst, uint32(pkt.Seq))
	dst = binary.BigEndian.AppendUint64(dst, pkt.Orig)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(pkt.Payload)))
	return append(dst, pkt.Payload...), nil
}

// decodePacketInto parses b into pkt, overwriting every field. It is
// the one decoder. pkt.Payload aliases b, and pkt.Trace is truncated in
// place so a reused packet keeps its capacity: the result is valid only
// while b is.
func decodePacketInto(pkt *dataplane.Packet, b []byte) error {
	if len(b) < packetHeaderLen {
		return fmt.Errorf("tunnel: packet frame too short (%d bytes)", len(b))
	}
	plen := int(binary.BigEndian.Uint32(b[packetHeaderLen-4:]))
	if len(b) != packetHeaderLen+plen {
		return fmt.Errorf("tunnel: payload length mismatch (%d declared, %d present)", plen, len(b)-packetHeaderLen)
	}
	pkt.ID = binary.BigEndian.Uint64(b[0:])
	pkt.Src = netip.AddrFrom4([4]byte(b[8:12]))
	pkt.Dst = netip.AddrFrom4([4]byte(b[12:16]))
	pkt.TTL = b[16]
	pkt.Proto = dataplane.Proto(b[17])
	pkt.ICMP = dataplane.ICMPType(b[18])
	pkt.SrcPort = binary.BigEndian.Uint16(b[19:])
	pkt.DstPort = binary.BigEndian.Uint16(b[21:])
	pkt.Seq = int(binary.BigEndian.Uint32(b[23:]))
	pkt.Orig = binary.BigEndian.Uint64(b[27:])
	pkt.Payload = b[packetHeaderLen:]
	pkt.Trace = pkt.Trace[:0]
	return nil
}

// EncodePacket serializes pkt for transmission through a tunnel into a
// buffer the caller owns.
func EncodePacket(pkt *dataplane.Packet) ([]byte, error) {
	return appendPacket(make([]byte, 0, packetHeaderLen+len(pkt.Payload)), pkt)
}

// DecodePacket parses a packet produced by EncodePacket. The result
// shares nothing with b.
func DecodePacket(b []byte) (*dataplane.Packet, error) {
	pkt := &dataplane.Packet{}
	if err := decodePacketInto(pkt, b); err != nil {
		return nil, err
	}
	pkt.Payload = append([]byte(nil), pkt.Payload...)
	return pkt, nil
}

// PacketTunnel sends and receives data-plane packets over one mux
// stream, bridging the emulated data plane across the "wire".
type PacketTunnel struct {
	stream *Stream
}

// NewPacketTunnel opens (or adopts) the packet channel on m and starts
// delivering inbound packets to onPacket.
//
// Every packet is decoded into one Packet and one buffer that the
// tunnel reuses: the packet handed to onPacket and its Payload are
// valid only until the handler returns. A handler that keeps the packet
// must keep pkt.Clone().
func NewPacketTunnel(m *Mux, onPacket func(*dataplane.Packet)) *PacketTunnel {
	return AdoptStream(m.Open(PacketChannel), onPacket)
}

// AdoptStream runs a packet tunnel over an already-accepted stream.
// As with NewPacketTunnel, the packet and its Payload are valid only
// until onPacket returns.
func AdoptStream(s *Stream, onPacket func(*dataplane.Packet)) *PacketTunnel {
	pt := &PacketTunnel{stream: s}
	go pt.readLoop(onPacket)
	return pt
}

// Send encodes and transmits pkt as [len | header | payload] in one
// stream write — one mux frame — so concurrent senders cannot
// interleave and a refused write leaves the stream in step. A receiver
// takes an encoding of up to maxFrame bytes; the length prefix shares
// the frame, so Send takes lenPrefix fewer.
func (pt *PacketTunnel) Send(pkt *dataplane.Packet) error {
	n := packetHeaderLen + len(pkt.Payload)
	if n > maxFrame-lenPrefix {
		return fmt.Errorf("tunnel: packet of %d bytes exceeds frame limit", n)
	}
	buf := bufpool.Get(lenPrefix + n)
	defer bufpool.Put(buf)
	binary.BigEndian.PutUint32(buf, uint32(n))
	out, err := appendPacket(buf[:lenPrefix], pkt)
	if err != nil {
		return err
	}
	_, err = pt.stream.Write(out)
	return err
}

// readLoop decodes the packet channel's byte stream — frame boundaries
// carry no meaning, so either end may write a packet in one piece or
// several — into a single Packet and a single buffer, both reused for
// every packet (see NewPacketTunnel). The buffer grows to the largest
// packet seen, which maxFrame bounds.
func (pt *PacketTunnel) readLoop(onPacket func(*dataplane.Packet)) {
	var pkt dataplane.Packet
	buf := make([]byte, 256)
	for {
		if _, err := io.ReadFull(pt.stream, buf[:lenPrefix]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(buf)
		if n > maxFrame {
			return
		}
		if int(n) > len(buf) {
			buf = make([]byte, n)
		}
		if _, err := io.ReadFull(pt.stream, buf[:n]); err != nil {
			return
		}
		if err := decodePacketInto(&pkt, buf[:n]); err != nil {
			continue // corrupt frame: drop, keep the tunnel up
		}
		onPacket(&pkt)
	}
}

// Close shuts the packet channel.
func (pt *PacketTunnel) Close() error { return pt.stream.Close() }
