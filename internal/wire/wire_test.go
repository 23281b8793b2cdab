package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func roundTrip(t *testing.T, m Message, opt Options) Message {
	t.Helper()
	b, err := Marshal(m, opt)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", m.Type(), err)
	}
	got, err := Decode(b, opt)
	if err != nil {
		t.Fatalf("Decode(%v): %v", m.Type(), err)
	}
	return got
}

func TestOpenRoundTrip(t *testing.T) {
	m := &Open{
		AS:       ASTrans,
		HoldTime: 90,
		BGPID:    addr("198.51.100.1"),
		Caps:     StandardCaps(4200000001, true),
	}
	got := roundTrip(t, m, DefaultOptions).(*Open)
	if got.AS != ASTrans || got.HoldTime != 90 || got.BGPID != m.BGPID {
		t.Fatalf("open fields = %+v", got)
	}
	if got.FourOctetAS() != 4200000001 {
		t.Fatalf("FourOctetAS = %d", got.FourOctetAS())
	}
	if !got.HasAddPath() {
		t.Fatal("HasAddPath = false, want true")
	}
	if got.Version != 4 {
		t.Fatalf("version defaulted to %d", got.Version)
	}
}

func TestOpenWithoutAddPath(t *testing.T) {
	m := &Open{AS: 65001, HoldTime: 180, BGPID: addr("10.0.0.1"), Caps: StandardCaps(65001, false)}
	got := roundTrip(t, m, DefaultOptions).(*Open)
	if got.HasAddPath() {
		t.Fatal("HasAddPath = true, want false")
	}
	if got.FourOctetAS() != 65001 {
		t.Fatalf("FourOctetAS = %d", got.FourOctetAS())
	}
}

func TestOpenBadHoldTime(t *testing.T) {
	for _, ht := range []uint16{1, 2} {
		m := &Open{AS: 1, HoldTime: ht, BGPID: addr("1.1.1.1")}
		b, err := Marshal(m, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Decode(b, DefaultOptions)
		var ne *Error
		if !errors.As(err, &ne) || ne.Code != CodeOpenMessageError || ne.Subcode != SubUnacceptableHoldTime {
			t.Fatalf("holdtime %d: err = %v, want unacceptable hold time", ht, err)
		}
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	b, err := Marshal(&Keepalive{}, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != HeaderLen {
		t.Fatalf("keepalive length = %d, want %d", len(b), HeaderLen)
	}
	if _, err := Decode(b, DefaultOptions); err != nil {
		t.Fatal(err)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	m := &Notification{Code: CodeCease, Subcode: SubAdminShutdown, Data: []byte("bye")}
	got := roundTrip(t, m, DefaultOptions).(*Notification)
	if got.Code != m.Code || got.Subcode != m.Subcode || string(got.Data) != "bye" {
		t.Fatalf("notification = %+v", got)
	}
}

func TestRouteRefreshRoundTrip(t *testing.T) {
	m := &RouteRefresh{AFI: AFIIPv4, SAFI: SAFIUnicast}
	got := roundTrip(t, m, DefaultOptions).(*RouteRefresh)
	if got.AFI != AFIIPv4 || got.SAFI != SAFIUnicast {
		t.Fatalf("route refresh = %+v", got)
	}
}

func sampleAttrs() *Attrs {
	return &Attrs{
		Origin: OriginIGP,
		ASPath: []Segment{
			{Type: SegSequence, ASNs: []uint32{65000, 3356, 1299}},
			{Type: SegSet, ASNs: []uint32{174, 2914}},
		},
		NextHop:      addr("192.0.2.1"),
		MED:          50,
		HasMED:       true,
		LocalPref:    120,
		HasLocalPref: true,
		Atomic:       true,
		Aggregator:   &Aggregator{AS: 65000, Addr: addr("192.0.2.9")},
		Communities:  []Community{MakeCommunity(65000, 42), CommNoExport},
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	m := &Update{
		Withdrawn: []NLRI{{Prefix: prefix("203.0.113.0/24")}},
		Attrs:     sampleAttrs(),
		Reach:     []NLRI{{Prefix: prefix("100.64.0.0/19")}, {Prefix: prefix("100.64.32.0/24")}},
	}
	got := roundTrip(t, m, DefaultOptions).(*Update)
	if len(got.Withdrawn) != 1 || got.Withdrawn[0].Prefix != prefix("203.0.113.0/24") {
		t.Fatalf("withdrawn = %v", got.Withdrawn)
	}
	if len(got.Reach) != 2 {
		t.Fatalf("reach = %v", got.Reach)
	}
	a := got.Attrs
	if a.Origin != OriginIGP || a.PathString() != "65000 3356 1299 {174,2914}" {
		t.Fatalf("attrs path = %q origin=%v", a.PathString(), a.Origin)
	}
	if !a.HasMED || a.MED != 50 || !a.HasLocalPref || a.LocalPref != 120 || !a.Atomic {
		t.Fatalf("attrs = %+v", a)
	}
	if a.Aggregator == nil || a.Aggregator.AS != 65000 {
		t.Fatalf("aggregator = %+v", a.Aggregator)
	}
	if len(a.Communities) != 2 || !a.HasCommunity(CommNoExport) {
		t.Fatalf("communities = %v", a.Communities)
	}
}

func TestUpdateAddPathRoundTrip(t *testing.T) {
	opt := Options{AddPath: true, AS4: true}
	m := &Update{
		Attrs: sampleAttrs(),
		Reach: []NLRI{
			{Prefix: prefix("100.64.0.0/24"), ID: 1},
			{Prefix: prefix("100.64.0.0/24"), ID: 2},
		},
	}
	got := roundTrip(t, m, opt).(*Update)
	if len(got.Reach) != 2 || got.Reach[0].ID != 1 || got.Reach[1].ID != 2 {
		t.Fatalf("add-path reach = %v", got.Reach)
	}
	if got.Reach[0].Prefix != got.Reach[1].Prefix {
		t.Fatal("add-path prefixes differ")
	}
}

func TestUpdateAddPathMismatchFails(t *testing.T) {
	// Encoded with ADD-PATH, decoded without: must error or mis-parse,
	// never silently succeed with the same NLRI.
	opt := Options{AddPath: true, AS4: true}
	m := &Update{Attrs: sampleAttrs(), Reach: []NLRI{{Prefix: prefix("100.64.0.0/24"), ID: 7}}}
	b, err := Marshal(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b, DefaultOptions)
	if err != nil {
		return // rejected: fine
	}
	u := got.(*Update)
	for _, n := range u.Reach {
		if n.Prefix == prefix("100.64.0.0/24") {
			t.Fatal("mismatched decode produced the original prefix")
		}
	}
}

func TestAS2EncodingWithAS4Path(t *testing.T) {
	// A 4-byte ASN through a 2-octet session: AS_PATH carries AS_TRANS,
	// AS4_PATH carries the truth, and the decoder reconciles.
	opt2 := Options{AS4: false}
	a := &Attrs{
		Origin:  OriginIGP,
		ASPath:  []Segment{{Type: SegSequence, ASNs: []uint32{4200000001, 65001}}},
		NextHop: addr("10.0.0.1"),
	}
	m := &Update{Attrs: a, Reach: []NLRI{{Prefix: prefix("198.18.0.0/15")}}}
	b, err := Marshal(m, opt2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b, opt2)
	if err != nil {
		t.Fatal(err)
	}
	path := got.(*Update).Attrs.ASList()
	if len(path) != 2 || path[0] != 4200000001 || path[1] != 65001 {
		t.Fatalf("reconciled path = %v", path)
	}
}

func TestAS2AggregatorReconciliation(t *testing.T) {
	opt2 := Options{AS4: false}
	a := &Attrs{
		Origin:     OriginIGP,
		ASPath:     []Segment{{Type: SegSequence, ASNs: []uint32{65001}}},
		NextHop:    addr("10.0.0.1"),
		Aggregator: &Aggregator{AS: 4200000009, Addr: addr("10.9.9.9")},
	}
	m := &Update{Attrs: a, Reach: []NLRI{{Prefix: prefix("198.18.0.0/15")}}}
	b, err := Marshal(m, opt2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b, opt2)
	if err != nil {
		t.Fatal(err)
	}
	ag := got.(*Update).Attrs.Aggregator
	if ag == nil || ag.AS != 4200000009 {
		t.Fatalf("aggregator = %+v", ag)
	}
}

func TestUnknownTransitiveAttrPassthrough(t *testing.T) {
	a := sampleAttrs()
	a.Unknown = []RawAttr{{Flags: flagOptional | flagTransitive, Code: 99, Value: []byte{1, 2, 3}}}
	m := &Update{Attrs: a, Reach: []NLRI{{Prefix: prefix("198.18.0.0/15")}}}
	got := roundTrip(t, m, DefaultOptions).(*Update)
	u := got.Attrs.Unknown
	if len(u) != 1 || u[0].Code != 99 || !bytes.Equal(u[0].Value, []byte{1, 2, 3}) {
		t.Fatalf("unknown attrs = %+v", u)
	}
	if u[0].Flags&flagPartial == 0 {
		t.Fatal("partial bit not set on forwarded unknown attribute")
	}
}

func TestDuplicateAttributeRejected(t *testing.T) {
	a := sampleAttrs()
	m := &Update{Attrs: a, Reach: []NLRI{{Prefix: prefix("198.18.0.0/15")}}}
	b, err := Marshal(m, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the ORIGIN attribute (first 4 bytes of the attr block).
	// Attr block starts after header(19) + wdLen(2) + wd(0) + attrLen(2).
	attrStart := HeaderLen + 2 + 2
	dup := append([]byte{}, b[:attrStart]...)
	origin := b[attrStart : attrStart+4]
	attrs := b[attrStart:]
	dup = append(dup, origin...)
	dup = append(dup, attrs...)
	// Fix lengths.
	dup[16] = byte(len(dup) >> 8)
	dup[17] = byte(len(dup))
	alOff := HeaderLen + 2
	al := int(dup[alOff])<<8 | int(dup[alOff+1])
	al += 4
	dup[alOff], dup[alOff+1] = byte(al>>8), byte(al)
	// RFC 7606: a duplicated attribute poisons the routes, not the
	// session — the UPDATE decodes as a withdraw of its NLRI.
	got, err := Decode(dup, DefaultOptions)
	if err != nil {
		t.Fatalf("duplicate attribute reset the session: %v", err)
	}
	u, ok := got.(*Update)
	if !ok || u.Malformed == nil {
		t.Fatalf("duplicate attribute not flagged treat-as-withdraw: %#v", got)
	}
	if u.Malformed.Action != ActionTreatAsWithdraw || u.Malformed.Subcode != SubMalformedAttributeList {
		t.Fatalf("Malformed = %+v, want treat-as-withdraw malformed-attribute-list", u.Malformed)
	}
	if u.Attrs != nil || len(u.Reach) != 0 {
		t.Fatalf("attrs/reach survived treat-as-withdraw: %#v", u)
	}
	if len(u.Withdrawn) != 1 || u.Withdrawn[0].Prefix != prefix("198.18.0.0/15") {
		t.Fatalf("NLRI not converted to withdraw: %+v", u.Withdrawn)
	}
	if u.IsEndOfRIB() {
		t.Fatal("treat-as-withdraw update must never read as End-of-RIB")
	}
}

func TestMalformedMarkerRejected(t *testing.T) {
	b, _ := Marshal(&Keepalive{}, DefaultOptions)
	b[0] = 0
	_, err := Decode(b, DefaultOptions)
	var ne *Error
	if !errors.As(err, &ne) || ne.Subcode != SubConnNotSynchronized {
		t.Fatalf("err = %v, want connection-not-synchronized", err)
	}
}

func TestBadLengthRejected(t *testing.T) {
	b, _ := Marshal(&Keepalive{}, DefaultOptions)
	b[16], b[17] = 0, 5 // < 19
	_, err := Decode(b, DefaultOptions)
	var ne *Error
	if !errors.As(err, &ne) || ne.Subcode != SubBadMessageLength {
		t.Fatalf("err = %v, want bad-message-length", err)
	}
}

func TestBadTypeRejected(t *testing.T) {
	b, _ := Marshal(&Keepalive{}, DefaultOptions)
	b[18] = 77
	_, err := Decode(b, DefaultOptions)
	var ne *Error
	if !errors.As(err, &ne) || ne.Subcode != SubBadMessageType {
		t.Fatalf("err = %v, want bad-message-type", err)
	}
}

func TestTruncatedMessage(t *testing.T) {
	m := &Update{Attrs: sampleAttrs(), Reach: []NLRI{{Prefix: prefix("198.18.0.0/15")}}}
	b, _ := Marshal(m, DefaultOptions)
	if _, err := Decode(b[:len(b)-3], DefaultOptions); err == nil {
		t.Fatal("truncated message accepted")
	}
}

func TestAttrsHelpers(t *testing.T) {
	a := sampleAttrs()
	if a.PathLen() != 4 { // 3 in sequence + set counts 1
		t.Fatalf("PathLen = %d, want 4", a.PathLen())
	}
	if a.FirstAS() != 65000 {
		t.Fatalf("FirstAS = %d", a.FirstAS())
	}
	if a.OriginAS() != 2914 {
		t.Fatalf("OriginAS = %d", a.OriginAS())
	}
	if !a.ContainsAS(1299) || a.ContainsAS(7018) {
		t.Fatal("ContainsAS wrong")
	}
	a.PrependAS(65000, 3)
	if a.PathLen() != 7 || a.FirstAS() != 65000 {
		t.Fatalf("after prepend: len=%d first=%d", a.PathLen(), a.FirstAS())
	}
	// Clone independence.
	c := a.Clone()
	c.PrependAS(9, 1)
	c.AddCommunity(MakeCommunity(1, 1))
	if a.ContainsAS(9) || a.HasCommunity(MakeCommunity(1, 1)) {
		t.Fatal("Clone aliases original")
	}
}

func TestPrependOnEmptyPath(t *testing.T) {
	a := &Attrs{NextHop: addr("10.0.0.1")}
	a.PrependAS(65000, 2)
	if got := a.PathString(); got != "65000 65000" {
		t.Fatalf("PathString = %q", got)
	}
}

func TestCommunityOps(t *testing.T) {
	a := &Attrs{}
	c1, c2 := MakeCommunity(47065, 100), MakeCommunity(47065, 200)
	a.AddCommunity(c2)
	a.AddCommunity(c1)
	a.AddCommunity(c1) // dedup
	if len(a.Communities) != 2 || a.Communities[0] != c1 {
		t.Fatalf("communities = %v", a.Communities)
	}
	if !a.RemoveCommunity(c1) || a.RemoveCommunity(c1) {
		t.Fatal("RemoveCommunity wrong")
	}
	if c1.AS() != 47065 || c1.Value() != 100 {
		t.Fatalf("community fields = %d:%d", c1.AS(), c1.Value())
	}
	if CommNoExport.String() != "no-export" || c1.String() != "47065:100" {
		t.Fatalf("community strings = %q %q", CommNoExport.String(), c1.String())
	}
}

func TestMergeAS4PathLonger(t *testing.T) {
	// AS4_PATH longer than AS_PATH must be ignored.
	path := []Segment{{Type: SegSequence, ASNs: []uint32{1, 2}}}
	as4 := []Segment{{Type: SegSequence, ASNs: []uint32{10, 20, 30}}}
	got := mergeAS4Path(path, as4)
	if len(got) != 1 || got[0].ASNs[0] != 1 {
		t.Fatalf("merge = %v", got)
	}
}

func randomUpdate(r *rand.Rand) *Update {
	nPath := r.Intn(6) + 1
	seg := Segment{Type: SegSequence, ASNs: make([]uint32, nPath)}
	for i := range seg.ASNs {
		seg.ASNs[i] = uint32(r.Intn(100000) + 1)
	}
	a := &Attrs{
		Origin:  Origin(r.Intn(3)),
		ASPath:  []Segment{seg},
		NextHop: netip.AddrFrom4([4]byte{10, byte(r.Intn(256)), byte(r.Intn(256)), 1}),
	}
	if r.Intn(2) == 0 {
		a.MED, a.HasMED = uint32(r.Intn(1000)), true
	}
	if r.Intn(2) == 0 {
		a.LocalPref, a.HasLocalPref = uint32(r.Intn(1000)), true
	}
	for i := 0; i < r.Intn(4); i++ {
		a.AddCommunity(MakeCommunity(uint16(r.Intn(65535)), uint16(r.Intn(65535))))
	}
	u := &Update{Attrs: a}
	for i := 0; i < r.Intn(5)+1; i++ {
		var b4 [4]byte
		r.Read(b4[:])
		bits := r.Intn(25) + 8
		u.Reach = append(u.Reach, NLRI{Prefix: netip.PrefixFrom(netip.AddrFrom4(b4), bits).Masked()})
	}
	for i := 0; i < r.Intn(3); i++ {
		var b4 [4]byte
		r.Read(b4[:])
		u.Withdrawn = append(u.Withdrawn, NLRI{Prefix: netip.PrefixFrom(netip.AddrFrom4(b4), r.Intn(25)+8).Masked()})
	}
	return u
}

// Property: marshal∘unmarshal is the identity on random well-formed
// UPDATEs (compared via re-marshal).
func TestQuickUpdateRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		u := randomUpdate(r)
		b1, err := Marshal(u, DefaultOptions)
		if err != nil {
			return false
		}
		got, err := Decode(b1, DefaultOptions)
		if err != nil {
			return false
		}
		b2, err := Marshal(got, DefaultOptions)
		if err != nil {
			return false
		}
		return bytes.Equal(b1, b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on random garbage bodies.
func TestQuickDecoderNoPanic(t *testing.T) {
	c := NewAttrCache(NewInternTable())
	f := func(body []byte, typ uint8) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("decoder panicked on type %d body %x", typ%6, body)
			}
		}()
		_, _ = decodeBody(MsgType(typ%6), body, DefaultOptions, nil)
		_, _ = decodeBody(MsgType(typ%6), body, Options{AddPath: true, AS4: true}, c)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalUpdate(b *testing.B) {
	m := &Update{Attrs: sampleAttrs(), Reach: []NLRI{{Prefix: prefix("100.64.0.0/24")}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m, DefaultOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeUpdate(b *testing.B) {
	m := &Update{Attrs: sampleAttrs(), Reach: []NLRI{{Prefix: prefix("100.64.0.0/24")}}}
	buf, _ := Marshal(m, DefaultOptions)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf, DefaultOptions); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIsPrivateASN(t *testing.T) {
	cases := map[uint32]bool{
		64511: false, 64512: true, 65534: true, 65535: false,
		4199999999: false, 4200000000: true, 4294967294: true, 4294967295: false,
		3356: false,
	}
	for asn, want := range cases {
		if got := IsPrivateASN(asn); got != want {
			t.Errorf("IsPrivateASN(%d) = %v", asn, got)
		}
	}
}
