package tunnel

import (
	"bytes"
	"testing"

	"peering/internal/dataplane"
)

// FuzzTunnelFrame checks decode∘encode identity on the packet framing:
// any byte string DecodePacket accepts must re-encode to exactly the
// bytes that were decoded. The format carries no redundancy (no
// checksums, no padding, one canonical field order), so a fixed point
// here means the codec neither drops nor invents information — the
// same invariant the MRT and wire-format fuzzers enforce.
//
// The tunnel's reader decodes into a reused packet (decodePacketInto)
// where DecodePacket allocates: the two must accept exactly the same
// inputs and agree on every field, whatever the reused packet held.
func FuzzTunnelFrame(f *testing.F) {
	// Seeds from the unit-test vectors: the canonical UDP sample, an
	// ICMP variant, an empty payload, and the malformed shapes the
	// codec must keep rejecting.
	seed := func(p *dataplane.Packet) {
		b, err := EncodePacket(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(samplePacket())
	icmp := samplePacket()
	icmp.ICMP = dataplane.ICMPEchoRequest
	icmp.Orig = 77
	seed(icmp)
	empty := samplePacket()
	empty.Payload = nil
	seed(empty)
	f.Add([]byte{1, 2, 3})
	b, _ := EncodePacket(samplePacket())
	f.Add(b[:len(b)-1])
	f.Add(append(bytes.Clone(b), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := DecodePacket(data)
		reused := samplePacket() // stale fields, payload and trace to overwrite
		reused.Orig, reused.Trace = 5, append(reused.Trace, reused.Src)
		intoErr := decodePacketInto(reused, data)
		if (err == nil) != (intoErr == nil) {
			t.Fatalf("DecodePacket: %v, decodePacketInto: %v", err, intoErr)
		}
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		if !samePacket(pkt, reused) {
			t.Fatalf("decodePacketInto = %+v, DecodePacket = %+v", reused, pkt)
		}
		out, err := EncodePacket(pkt)
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode∘encode not identity:\n in  %x\n out %x", data, out)
		}
	})
}
