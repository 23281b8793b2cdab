package compiled

// FuzzVerdict drives compile∘verdict as a total function: arbitrary
// rule text (parse errors allowed, panics not), plus an arbitrary
// prefix and AS path synthesized from the fuzz input, must always
// produce a verdict. The invariants checked beyond "no panic": a
// filter with no prefix rules and default permit never rejects with
// ClassPrefix, a verdict on a path without any protected AS never
// rejects with a Peerlock class, and MatchPrefix and Origin — and the
// verdict classes they decide — agree with the linear scans of the
// source rules (matchReference, originReference), in either family.

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"strings"
	"testing"

	"peering/internal/wire"
)

func FuzzVerdict(f *testing.F) {
	f.Add([]byte("prefix permit 184.164.224.0/19 le 24\nroa 96.0.0.0/16 maxlen 24 origin 64500\npeerlock 174 allow 3356\npeerlock-lite 3257\n"),
		[]byte{184, 164, 224, 0, 24}, []byte{0, 0, 13, 28, 0, 0, 252, 116})
	f.Add([]byte("default deny\n"), []byte{8, 8, 8, 0, 24}, []byte{})
	f.Add([]byte("# only comments\n"), []byte{255, 255, 255, 255, 64}, []byte{1, 2, 3, 4})
	f.Add([]byte("prefix permit 2001:db8::/32 le 48\nprefix deny 2001:db8:1::/48\nroa 2001:db8::/32 maxlen 48 origin 64500\nroa 0.0.0.0/0 maxlen 32 origin 64501\n"),
		[]byte{0x20, 0x01, 0x0d, 0xb8, 48, 1, 0, 1}, []byte{0, 0, 13, 28, 0, 0, 252, 116})
	f.Fuzz(func(t *testing.T, rules, prefixBytes, pathBytes []byte) {
		rs, err := ParseRules(bytes.NewReader(rules))
		if err != nil {
			rs = &RuleSet{}
		}
		flt := Compile(rs)

		// Synthesize a prefix: 4 address bytes + mask byte, then a family
		// byte. Odd makes it IPv6, its other twelve address bytes
		// following, and the mask mod 129; otherwise IPv4, mask mod 33.
		var a [16]byte
		copy(a[:4], prefixBytes)
		var mask byte
		if len(prefixBytes) > 4 {
			mask = prefixBytes[4]
		}
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte(a[:4])), int(mask)%33)
		if len(prefixBytes) > 5 && prefixBytes[5]&1 == 1 {
			copy(a[4:], prefixBytes[6:])
			p = netip.PrefixFrom(netip.AddrFrom16(a), int(mask)%129)
		}

		// Synthesize a path: every 4 bytes one ASN, alternating segment
		// types so sets are exercised too.
		var segs []wire.Segment
		for i := 0; i+4 <= len(pathBytes) && i < 64; i += 4 {
			asn := binary.BigEndian.Uint32(pathBytes[i : i+4])
			st := wire.SegSequence
			if i%12 == 8 {
				st = wire.SegSet
			}
			if len(segs) > 0 && segs[len(segs)-1].Type == st {
				segs[len(segs)-1].ASNs = append(segs[len(segs)-1].ASNs, asn)
			} else {
				segs = append(segs, wire.Segment{Type: st, ASNs: []uint32{asn}})
			}
		}
		attrs := &wire.Attrs{Origin: wire.OriginIGP, ASPath: segs,
			NextHop: netip.MustParseAddr("10.0.0.1")}

		owned := matchReference(rs.Prefixes, !rs.DefaultDeny, p)
		origin := originReference(rs.Origins, p, attrs.OriginAS())
		for _, peer := range []Peer{{}, {AS: attrs.FirstAS(), Transit: true}} {
			v := flt.Verdict(p, attrs, peer)
			if (v.Class == ClassPrefix) != !owned {
				t.Fatalf("Verdict(%v) = %+v, the prefix scan says owned=%v (rules %q)", p, v, owned, rules)
			}
			if v.Class == ClassOrigin && origin != OriginInvalid {
				t.Fatalf("Verdict(%v) = %+v, the origin scan says %v (rules %q)", p, v, origin, rules)
			}
			if v.Accept && v.Class != ClassNone {
				t.Fatalf("accept verdict carries class %v", v.Class)
			}
			if !v.Accept && v.Class == ClassNone {
				t.Fatal("reject verdict without a class")
			}
			if v.Class == ClassPrefix && len(rs.Prefixes) == 0 && !rs.DefaultDeny {
				t.Fatalf("prefix reject from a permissive empty prefix table (rules %q)", rules)
			}
			if v.Class == ClassPeerlock || v.Class == ClassPeerlockLite {
				found := false
				for _, asn := range attrs.ASList() {
					if _, ok := flt.peerlock[asn]; ok {
						found = true
					}
					if _, ok := flt.noTransit[asn]; ok {
						found = true
					}
				}
				if !found {
					t.Fatalf("%v reject but no protected AS in path %s", v.Class, attrs.PathString())
				}
			}
		}
		if got := flt.MatchPrefix(p); got != owned {
			t.Fatalf("MatchPrefix(%v) = %v, the linear scan says %v (rules %q)", p, got, owned, rules)
		}
		if got := flt.Origin(p, attrs.OriginAS()); got != origin {
			t.Fatalf("Origin(%v) = %v, the linear scan says %v (rules %q)", p, got, origin, rules)
		}
		_ = strings.TrimSpace(flt.String())
	})
}
