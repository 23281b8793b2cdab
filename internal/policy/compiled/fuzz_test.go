package compiled

// FuzzVerdict drives compile∘verdict as a total function: arbitrary
// rule text (parse errors allowed, panics not), plus an arbitrary
// prefix and AS path synthesized from the fuzz input, must always
// produce a verdict. The invariants checked beyond "no panic": a
// filter with no prefix rules and default permit never rejects with
// ClassPrefix, a verdict on a path without any protected AS never
// rejects with a Peerlock class, and the frozen rule tables give the
// verdicts the bit tries they were frozen from give.

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
	f.Fuzz(func(t *testing.T, rules, prefixBytes, pathBytes []byte) {
		rs, err := ParseRules(bytes.NewReader(rules))
		if err != nil {
			rs = &RuleSet{}
		}
		flt := Compile(rs)
		ref := Compile(rs) // the same rules answered from the bit tries
		ref.prefixes4, ref.origins4 = nil, nil

		// Synthesize a prefix: 4 address bytes + mask byte (mod 33).
		var a4 [4]byte
		copy(a4[:], prefixBytes)
		bits := 0
		if len(prefixBytes) > 4 {
			bits = int(prefixBytes[4]) % 33
		}
		p := netip.PrefixFrom(netip.AddrFrom4(a4), bits)

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

		for _, peer := range []Peer{{}, {AS: attrs.FirstAS(), Transit: true}} {
			v := flt.Verdict(p, attrs, peer)
			if want := ref.Verdict(p, attrs, peer); v != want {
				t.Fatalf("Verdict(%v) = %+v from the frozen tables, %+v from the tries (rules %q)", p, v, want, rules)
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
		// MatchPrefix and Origin must be total on their own, too.
		if got, want := flt.MatchPrefix(p), ref.MatchPrefix(p); got != want {
			t.Fatalf("MatchPrefix(%v) = %v frozen, %v from the trie (rules %q)", p, got, want, rules)
		}
		if got, want := flt.Origin(p, attrs.OriginAS()), ref.Origin(p, attrs.OriginAS()); got != want {
			t.Fatalf("Origin(%v) = %v frozen, %v from the trie (rules %q)", p, got, want, rules)
		}
		_ = strings.TrimSpace(flt.String())
	})
}
