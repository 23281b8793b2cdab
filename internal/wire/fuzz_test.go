package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/maphash"
	"net/netip"
	"reflect"
	"testing"
)

// FuzzParseMessage throws arbitrary bytes at the message decoder under
// both codec option sets. A message that decodes must re-encode, and
// the re-encoding must decode back to an identical structure — the
// codec normalizes representation, so byte-identity is not required,
// but structural identity is.
func FuzzParseMessage(f *testing.F) {
	seedOpts := Options{AS4: true, AddPath: true}
	open := &Open{Version: 4, AS: 47065, HoldTime: 90, BGPID: netip.MustParseAddr("184.164.224.1")}
	if b, err := Marshal(open, seedOpts); err == nil {
		f.Add(b)
	}
	upd := &Update{
		Attrs: &Attrs{
			Origin:      OriginIGP,
			ASPath:      []Segment{{Type: SegSequence, ASNs: []uint32{196615, 3356}}},
			NextHop:     netip.MustParseAddr("80.249.208.10"),
			Communities: []Community{CommNoExport},
		},
		Reach:     []NLRI{{Prefix: netip.MustParsePrefix("184.164.224.0/24"), ID: 1}},
		Withdrawn: []NLRI{{Prefix: netip.MustParsePrefix("10.0.0.0/8"), ID: 2}},
	}
	if b, err := Marshal(upd, seedOpts); err == nil {
		f.Add(b)
	}
	if b, err := Marshal(&Keepalive{}, seedOpts); err == nil {
		f.Add(b)
	}
	// Malformed-attribute seeds: start from the valid UPDATE and damage
	// the attribute block, steering the fuzzer toward the RFC 7606
	// classification paths (truncated values, corrupted flags, duplicated
	// and unknown attributes).
	if b, err := Marshal(upd, seedOpts); err == nil {
		attrStart := HeaderLen + 2 + 2 + (1+4)*1 + 2 // header, wdLen, one ADD-PATH /8 withdraw, attrLen
		for _, mut := range []func(s []byte){
			func(s []byte) { s[attrStart+2] = 0xff },      // ORIGIN length 1 -> 255 (overruns block)
			func(s []byte) { s[attrStart+3] = 9 },         // ORIGIN value 9 (invalid)
			func(s []byte) { s[attrStart] = 0x00 },        // ORIGIN flags: well-known -> malformed flags
			func(s []byte) { s[attrStart+1] = 77 },        // ORIGIN -> unrecognized well-known code
			func(s []byte) { s[attrStart] |= flagExtLen }, // extended-length bit without the extra byte
			func(s []byte) { s[len(s)-8] = 0xee },         // corrupt a byte mid-attrs
		} {
			s := append([]byte(nil), b...)
			mut(s)
			f.Add(s)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opt := range []Options{{}, {AS4: true, AddPath: true}} {
			m, err := Decode(data, opt)
			checkCachedDecode(t, data, opt, m, err)
			if err != nil {
				// RFC 7606 classification must be total: an error that
				// escapes Decode is by definition a session reset —
				// treat-as-withdraw and attribute-discard are absorbed
				// into the returned Update. Anything else is an io error
				// from truncated framing.
				var we *Error
				if errors.As(err, &we) && we.Action != ActionSessionReset {
					t.Fatalf("decode error escaped with non-reset action %v: %v\n in %x", we.Action, err, data)
				}
				continue
			}
			if u, ok := m.(*Update); ok && u.Malformed != nil {
				if u.Malformed.Action != ActionTreatAsWithdraw {
					t.Fatalf("Update.Malformed carries action %v, want treat-as-withdraw\n in %x", u.Malformed.Action, data)
				}
				if u.Attrs != nil || len(u.Reach) != 0 {
					t.Fatalf("treat-as-withdraw left attrs/reach populated: %#v\n in %x", u, data)
				}
				if u.IsEndOfRIB() {
					t.Fatalf("treat-as-withdraw update reads as End-of-RIB\n in %x", data)
				}
			}
			b, err := Marshal(m, opt)
			if err != nil {
				// Some decodable messages carry values the encoder refuses
				// (e.g. an Open whose optional parameters exceed limits);
				// rejecting is fine, panicking is not.
				continue
			}
			m2, err := Decode(b, opt)
			if err != nil {
				t.Fatalf("re-encoded message does not decode (opts %+v): %v\n in  %x\n out %x", opt, err, data, b)
			}
			if u, ok := m.(*Update); ok && (u.Malformed != nil || u.Discarded != nil) {
				// Malformed/Discarded are decode-side annotations the
				// encoder does not (and must not) represent; compare the
				// canonical remainder.
				u = &Update{Withdrawn: u.Withdrawn, Attrs: u.Attrs, Reach: u.Reach, Refresh: u.Refresh}
				m = u
			}
			if !reflect.DeepEqual(m, m2) {
				t.Fatalf("re-decode differs (opts %+v):\n m  %#v\n m2 %#v", opt, m, m2)
			}
		}
	})
}

// checkCachedDecode is FuzzParseMessage's cache oracle: data decoded
// through one AttrCache twice (a miss, then a hit), and once more after
// a colliding block has evicted its slot, must give what a fresh decode
// gave (fresh, freshErr) every time — same Update, Malformed and
// Discarded, or the same session-reset error.
func checkCachedDecode(t *testing.T, data []byte, opt Options, fresh Message, freshErr error) {
	t.Helper()
	c := NewAttrCache(NewInternTable())
	decode := func(when string, want AttrSource) {
		t.Helper()
		m, src, err := c.ReadMessage(bytes.NewReader(data), opt)
		if !reflect.DeepEqual(err, freshErr) {
			t.Fatalf("%s: cached decode error %v, fresh %v (opts %+v)\n in %x", when, err, freshErr, opt, data)
		}
		if !reflect.DeepEqual(m, fresh) {
			t.Fatalf("%s: cached decode differs (opts %+v):\n cached %#v\n fresh  %#v\n in %x", when, opt, m, fresh, data)
		}
		if src != want {
			t.Fatalf("%s: attributes from %v, want %v (opts %+v)\n in %x", when, src, want, opt, data)
		}
	}
	slot := func() int {
		for i := range c.slots {
			if len(c.slots[i].block) > 0 {
				return i
			}
		}
		return -1
	}
	m, src, err := c.ReadMessage(bytes.NewReader(data), opt)
	if !reflect.DeepEqual(m, fresh) || !reflect.DeepEqual(err, freshErr) {
		t.Fatalf("first decode differs (opts %+v):\n cached %#v, %v\n fresh  %#v, %v\n in %x", opt, m, err, fresh, freshErr, data)
	}
	i := slot()
	if i < 0 {
		// No block reached the cache: none in the message, or a
		// session reset before or inside it, which is never cached.
		decode("uncached decode", AttrsNone)
		return
	}
	if src != AttrsParsed {
		t.Fatalf("first decode: attributes from %v, want parsed\n in %x", src, data)
	}
	decode("second decode", AttrsCached)
	// Evict: a valid block (ORIGIN, MED n) that maps to the same slot.
	mask := uint64(len(c.slots) - 1)
	for n := uint32(0); ; n++ {
		other := binary.BigEndian.AppendUint32([]byte{flagTransitive, attrOrigin, 1, 0, flagOptional, attrMED, 4}, n)
		if maphash.Bytes(c.seed, other)&mask != uint64(i) || bytes.Equal(other, c.slots[i].block) {
			continue
		}
		if _, _, _, err := c.decode(other, opt); err != nil {
			t.Fatalf("evicting block %x does not decode: %v", other, err)
		}
		break
	}
	decode("decode after eviction", AttrsParsed)
}
