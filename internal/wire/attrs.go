package wire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"strings"
)

// Path attribute type codes.
const (
	attrOrigin          uint8 = 1
	attrASPath          uint8 = 2
	attrNextHop         uint8 = 3
	attrMED             uint8 = 4
	attrLocalPref       uint8 = 5
	attrAtomicAggregate uint8 = 6
	attrAggregator      uint8 = 7
	attrCommunities     uint8 = 8
	attrAS4Path         uint8 = 17
	attrAS4Aggregator   uint8 = 18
)

// Attribute flag bits.
const (
	flagOptional   uint8 = 0x80
	flagTransitive uint8 = 0x40
	flagPartial    uint8 = 0x20
	flagExtLen     uint8 = 0x10
)

// Origin is the ORIGIN attribute value.
type Origin uint8

// ORIGIN values (RFC 4271 §5.1.1).
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "incomplete"
	default:
		return fmt.Sprintf("origin(%d)", uint8(o))
	}
}

// SegType is an AS_PATH segment type.
type SegType uint8

// AS_PATH segment types.
const (
	SegSet      SegType = 1
	SegSequence SegType = 2
)

// Segment is one AS_PATH segment.
type Segment struct {
	Type SegType
	ASNs []uint32
}

// IsPrivateASN reports whether asn is in the RFC 6996 private ranges.
func IsPrivateASN(asn uint32) bool {
	return (asn >= 64512 && asn <= 65534) || (asn >= 4200000000 && asn <= 4294967294)
}

// Community is an RFC 1997 community value.
type Community uint32

// Well-known communities.
const (
	CommNoExport    Community = 0xFFFFFF01
	CommNoAdvertise Community = 0xFFFFFF02
	CommNoExportSub Community = 0xFFFFFF03
)

// MakeCommunity builds the conventional AS:value community.
func MakeCommunity(asn uint16, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// AS returns the high 16 bits (conventionally an ASN).
func (c Community) AS() uint16 { return uint16(c >> 16) }

// Value returns the low 16 bits.
func (c Community) Value() uint16 { return uint16(c) }

func (c Community) String() string {
	switch c {
	case CommNoExport:
		return "no-export"
	case CommNoAdvertise:
		return "no-advertise"
	case CommNoExportSub:
		return "no-export-subconfed"
	}
	return fmt.Sprintf("%d:%d", c.AS(), c.Value())
}

// Aggregator is the AGGREGATOR attribute.
type Aggregator struct {
	AS   uint32
	Addr netip.Addr
}

// RawAttr is an attribute the codec does not interpret; transitive
// unknown attributes are carried through with the partial bit set, per
// RFC 4271 §5.
type RawAttr struct {
	Flags uint8
	Code  uint8
	Value []byte
}

// Attrs is the parsed path-attribute set of an UPDATE.
type Attrs struct {
	Origin       Origin
	ASPath       []Segment
	NextHop      netip.Addr
	MED          uint32
	HasMED       bool
	LocalPref    uint32
	HasLocalPref bool
	Atomic       bool
	Aggregator   *Aggregator
	Communities  []Community
	// Unknown carries unrecognized transitive attributes through.
	Unknown []RawAttr
}

// Clone returns a deep copy, so policy mutation never aliases RIB state.
func (a *Attrs) Clone() *Attrs {
	if a == nil {
		return nil
	}
	c := *a
	c.ASPath = make([]Segment, len(a.ASPath))
	for i, s := range a.ASPath {
		c.ASPath[i] = Segment{Type: s.Type, ASNs: slices.Clone(s.ASNs)}
	}
	c.Communities = slices.Clone(a.Communities)
	if a.Aggregator != nil {
		ag := *a.Aggregator
		c.Aggregator = &ag
	}
	c.Unknown = make([]RawAttr, len(a.Unknown))
	for i, u := range a.Unknown {
		c.Unknown[i] = RawAttr{Flags: u.Flags, Code: u.Code, Value: slices.Clone(u.Value)}
	}
	return &c
}

// PathLen returns the AS_PATH length for route selection: each ASN in a
// sequence counts 1, each set counts 1 total (RFC 4271 §9.1.2.2).
func (a *Attrs) PathLen() int {
	n := 0
	for _, s := range a.ASPath {
		if s.Type == SegSet {
			n++
		} else {
			n += len(s.ASNs)
		}
	}
	return n
}

// FirstAS returns the leftmost ASN (the neighbor that sent the route),
// or 0 for an empty path.
func (a *Attrs) FirstAS() uint32 {
	for _, s := range a.ASPath {
		if len(s.ASNs) > 0 {
			return s.ASNs[0]
		}
	}
	return 0
}

// OriginAS returns the rightmost ASN (the originator), or 0 for an
// empty path.
func (a *Attrs) OriginAS() uint32 {
	for i := len(a.ASPath) - 1; i >= 0; i-- {
		if n := len(a.ASPath[i].ASNs); n > 0 {
			return a.ASPath[i].ASNs[n-1]
		}
	}
	return 0
}

// ContainsAS reports whether asn appears anywhere in the AS_PATH (the
// loop-detection test).
func (a *Attrs) ContainsAS(asn uint32) bool {
	for _, s := range a.ASPath {
		if slices.Contains(s.ASNs, asn) {
			return true
		}
	}
	return false
}

// ASList flattens the AS_PATH into a single slice, sequences and sets
// alike, left to right.
func (a *Attrs) ASList() []uint32 {
	var out []uint32
	for _, s := range a.ASPath {
		out = append(out, s.ASNs...)
	}
	return out
}

// PrependAS prepends asn count times to the AS_PATH, extending or
// creating the leading sequence segment.
func (a *Attrs) PrependAS(asn uint32, count int) {
	if count <= 0 {
		return
	}
	head := make([]uint32, count)
	for i := range head {
		head[i] = asn
	}
	if len(a.ASPath) > 0 && a.ASPath[0].Type == SegSequence {
		a.ASPath[0].ASNs = append(head, a.ASPath[0].ASNs...)
		return
	}
	a.ASPath = append([]Segment{{Type: SegSequence, ASNs: head}}, a.ASPath...)
}

// HasCommunity reports whether c is attached.
func (a *Attrs) HasCommunity(c Community) bool {
	return slices.Contains(a.Communities, c)
}

// AddCommunity attaches c if not already present, keeping the list
// sorted so encoding is canonical.
func (a *Attrs) AddCommunity(c Community) {
	if a.HasCommunity(c) {
		return
	}
	a.Communities = append(a.Communities, c)
	slices.Sort(a.Communities)
}

// RemoveCommunity detaches c, reporting whether it was present.
func (a *Attrs) RemoveCommunity(c Community) bool {
	i := slices.Index(a.Communities, c)
	if i < 0 {
		return false
	}
	a.Communities = slices.Delete(a.Communities, i, i+1)
	return true
}

// PathString formats the AS_PATH in the conventional "1 2 {3,4}" form.
func (a *Attrs) PathString() string {
	var sb strings.Builder
	for i, s := range a.ASPath {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if s.Type == SegSet {
			sb.WriteByte('{')
			for j, asn := range s.ASNs {
				if j > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "%d", asn)
			}
			sb.WriteByte('}')
			continue
		}
		for j, asn := range s.ASNs {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", asn)
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Encoding

func appendAttrHeader(b []byte, flags, code uint8, length int) []byte {
	if length > 255 {
		flags |= flagExtLen
		b = append(b, flags, code)
		return binary.BigEndian.AppendUint16(b, uint16(length))
	}
	return append(b, flags, code, byte(length))
}

func needsAS4(segs []Segment) bool {
	for _, s := range segs {
		for _, a := range s.ASNs {
			if a > 0xffff {
				return true
			}
		}
	}
	return false
}

// asPathWireLen returns the encoded AS_PATH length without building it,
// validating segment sizes; empty segments are skipped, matching
// appendASPath.
func asPathWireLen(segs []Segment, four bool) (int, error) {
	width := 2
	if four {
		width = 4
	}
	n := 0
	for _, s := range segs {
		if len(s.ASNs) == 0 {
			continue
		}
		if len(s.ASNs) > 255 {
			return 0, fmt.Errorf("wire: AS_PATH segment with %d ASNs exceeds 255", len(s.ASNs))
		}
		n += 2 + len(s.ASNs)*width
	}
	return n, nil
}

// appendASPath appends the encoded AS_PATH to b. Callers validate via
// asPathWireLen first.
func appendASPath(b []byte, segs []Segment, four bool) []byte {
	for _, s := range segs {
		if len(s.ASNs) == 0 {
			continue
		}
		b = append(b, byte(s.Type), byte(len(s.ASNs)))
		for _, asn := range s.ASNs {
			if four {
				b = binary.BigEndian.AppendUint32(b, asn)
			} else {
				v := uint16(asn)
				if asn > 0xffff {
					v = ASTrans
				}
				b = binary.BigEndian.AppendUint16(b, v)
			}
		}
	}
	return b
}

// marshal encodes the attribute set in canonical (ascending type code)
// order.
func (a *Attrs) marshal(opt Options) ([]byte, error) {
	return a.appendMarshal(nil, opt)
}

// appendMarshal appends the canonical encoding to b, growing it only
// when capacity runs out; with a pooled b the whole encode is
// allocation-free.
func (a *Attrs) appendMarshal(b []byte, opt Options) ([]byte, error) {
	// ORIGIN
	b = appendAttrHeader(b, flagTransitive, attrOrigin, 1)
	b = append(b, byte(a.Origin))
	// AS_PATH
	aspLen, err := asPathWireLen(a.ASPath, opt.AS4)
	if err != nil {
		return nil, err
	}
	b = appendAttrHeader(b, flagTransitive, attrASPath, aspLen)
	b = appendASPath(b, a.ASPath, opt.AS4)
	// NEXT_HOP
	if !a.NextHop.Is4() {
		return nil, fmt.Errorf("wire: NEXT_HOP %v is not IPv4", a.NextHop)
	}
	nh := a.NextHop.As4()
	b = appendAttrHeader(b, flagTransitive, attrNextHop, 4)
	b = append(b, nh[:]...)
	// MED
	if a.HasMED {
		b = appendAttrHeader(b, flagOptional, attrMED, 4)
		b = binary.BigEndian.AppendUint32(b, a.MED)
	}
	// LOCAL_PREF
	if a.HasLocalPref {
		b = appendAttrHeader(b, flagTransitive, attrLocalPref, 4)
		b = binary.BigEndian.AppendUint32(b, a.LocalPref)
	}
	// ATOMIC_AGGREGATE
	if a.Atomic {
		b = appendAttrHeader(b, flagTransitive, attrAtomicAggregate, 0)
	}
	// AGGREGATOR
	if a.Aggregator != nil {
		if !a.Aggregator.Addr.Is4() {
			return nil, fmt.Errorf("wire: AGGREGATOR address %v is not IPv4", a.Aggregator.Addr)
		}
		ad := a.Aggregator.Addr.As4()
		if opt.AS4 {
			b = appendAttrHeader(b, flagOptional|flagTransitive, attrAggregator, 8)
			b = binary.BigEndian.AppendUint32(b, a.Aggregator.AS)
		} else {
			b = appendAttrHeader(b, flagOptional|flagTransitive, attrAggregator, 6)
			v := uint16(a.Aggregator.AS)
			if a.Aggregator.AS > 0xffff {
				v = ASTrans
			}
			b = binary.BigEndian.AppendUint16(b, v)
		}
		b = append(b, ad[:]...)
	}
	// COMMUNITY
	if len(a.Communities) > 0 {
		b = appendAttrHeader(b, flagOptional|flagTransitive, attrCommunities, 4*len(a.Communities))
		for _, c := range a.Communities {
			b = binary.BigEndian.AppendUint32(b, uint32(c))
		}
	}
	// AS4_PATH / AS4_AGGREGATOR when speaking 2-octet and large ASNs
	// are present (RFC 6793 §4.2.2).
	if !opt.AS4 {
		if needsAS4(a.ASPath) {
			as4Len, err := asPathWireLen(a.ASPath, true)
			if err != nil {
				return nil, err
			}
			b = appendAttrHeader(b, flagOptional|flagTransitive, attrAS4Path, as4Len)
			b = appendASPath(b, a.ASPath, true)
		}
		if a.Aggregator != nil && a.Aggregator.AS > 0xffff {
			ad := a.Aggregator.Addr.As4()
			b = appendAttrHeader(b, flagOptional|flagTransitive, attrAS4Aggregator, 8)
			b = binary.BigEndian.AppendUint32(b, a.Aggregator.AS)
			b = append(b, ad[:]...)
		}
	}
	// Unknown transitive passthrough, partial bit set.
	for _, u := range a.Unknown {
		flags := u.Flags | flagPartial
		b = appendAttrHeader(b, flags&^flagExtLen, u.Code, len(u.Value))
		b = append(b, u.Value...)
	}
	return b, nil
}

// ---------------------------------------------------------------------
// Decoding

func parseASPath(v []byte, four bool) ([]Segment, error) {
	width := 2
	if four {
		width = 4
	}
	var segs []Segment
	for len(v) > 0 {
		if len(v) < 2 {
			return nil, withdrawError(SubMalformedASPath, nil)
		}
		st, n := SegType(v[0]), int(v[1])
		if st != SegSet && st != SegSequence {
			return nil, withdrawError(SubMalformedASPath, nil)
		}
		need := 2 + n*width
		if len(v) < need {
			return nil, withdrawError(SubMalformedASPath, nil)
		}
		seg := Segment{Type: st, ASNs: make([]uint32, n)}
		for i := 0; i < n; i++ {
			off := 2 + i*width
			if four {
				seg.ASNs[i] = binary.BigEndian.Uint32(v[off : off+4])
			} else {
				seg.ASNs[i] = uint32(binary.BigEndian.Uint16(v[off : off+2]))
			}
		}
		segs = append(segs, seg)
		v = v[need:]
	}
	return segs, nil
}

// parseAttrs decodes a path-attribute block with RFC 7606 revised
// error handling. Errors fall in three tiers: attribute-list framing
// damage and unrecognized well-known attributes reset the session
// (returned error has ActionSessionReset); malformation of an
// attribute that drives route selection (ORIGIN, AS_PATH, NEXT_HOP,
// MED, LOCAL_PREF, COMMUNITIES) or a duplicated attribute returns an
// ActionTreatAsWithdraw error; malformation of an attribute that
// cannot change selection (ATOMIC_AGGREGATE, AGGREGATOR, AS4_PATH,
// AS4_AGGREGATOR) is discarded and parsing continues, with the dropped
// type codes returned in discarded.
func parseAttrs(b []byte, opt Options) (a *Attrs, discarded []uint8, err error) {
	a = &Attrs{}
	var seen [4]uint64 // one bit per attribute type code
	var as4Path []Segment
	var as4Agg *Aggregator
	for len(b) > 0 {
		if len(b) < 3 {
			return nil, nil, NotifError(CodeUpdateMessageError, SubMalformedAttributeList, nil)
		}
		flags, code := b[0], b[1]
		var vlen, hlen int
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return nil, nil, NotifError(CodeUpdateMessageError, SubMalformedAttributeList, nil)
			}
			vlen, hlen = int(binary.BigEndian.Uint16(b[2:4])), 4
		} else {
			vlen, hlen = int(b[2]), 3
		}
		if len(b) < hlen+vlen {
			// The attribute overruns the block: nothing after this point
			// can be framed, so per RFC 7606 §5.3 this stays fatal.
			return nil, nil, NotifError(CodeUpdateMessageError, SubAttributeLengthError, nil)
		}
		v := b[hlen : hlen+vlen]
		b = b[hlen+vlen:]
		if seen[code>>6]&(1<<(code&63)) != 0 {
			return nil, nil, withdrawError(SubMalformedAttributeList, []byte{code})
		}
		seen[code>>6] |= 1 << (code & 63)
		switch code {
		case attrOrigin:
			if vlen != 1 {
				return nil, nil, withdrawError(SubAttributeLengthError, v)
			}
			if v[0] > 2 {
				return nil, nil, withdrawError(SubInvalidOriginAttribute, v)
			}
			a.Origin = Origin(v[0])
		case attrASPath:
			segs, err := parseASPath(v, opt.AS4)
			if err != nil {
				return nil, nil, err
			}
			a.ASPath = segs
		case attrNextHop:
			if vlen != 4 {
				return nil, nil, withdrawError(SubInvalidNextHopAttribute, v)
			}
			a.NextHop = netip.AddrFrom4([4]byte(v))
		case attrMED:
			if vlen != 4 {
				return nil, nil, withdrawError(SubAttributeLengthError, v)
			}
			a.MED, a.HasMED = binary.BigEndian.Uint32(v), true
		case attrLocalPref:
			if vlen != 4 {
				return nil, nil, withdrawError(SubAttributeLengthError, v)
			}
			a.LocalPref, a.HasLocalPref = binary.BigEndian.Uint32(v), true
		case attrAtomicAggregate:
			if vlen != 0 {
				discarded = append(discarded, code)
				continue
			}
			a.Atomic = true
		case attrAggregator:
			switch vlen {
			case 8:
				a.Aggregator = &Aggregator{AS: binary.BigEndian.Uint32(v[0:4]), Addr: netip.AddrFrom4([4]byte(v[4:8]))}
			case 6:
				a.Aggregator = &Aggregator{AS: uint32(binary.BigEndian.Uint16(v[0:2])), Addr: netip.AddrFrom4([4]byte(v[2:6]))}
			default:
				discarded = append(discarded, code)
			}
		case attrCommunities:
			if vlen%4 != 0 {
				return nil, nil, withdrawError(SubAttributeLengthError, v)
			}
			for i := 0; i < vlen; i += 4 {
				a.Communities = append(a.Communities, Community(binary.BigEndian.Uint32(v[i:i+4])))
			}
		case attrAS4Path:
			segs, err := parseASPath(v, true)
			if err != nil {
				discarded = append(discarded, code)
				continue
			}
			as4Path = segs
		case attrAS4Aggregator:
			if vlen != 8 {
				discarded = append(discarded, code)
				continue
			}
			as4Agg = &Aggregator{AS: binary.BigEndian.Uint32(v[0:4]), Addr: netip.AddrFrom4([4]byte(v[4:8]))}
		default:
			if flags&flagOptional == 0 {
				// Unrecognized well-known attribute: session error.
				return nil, nil, NotifError(CodeUpdateMessageError, SubUnrecognizedWellKnownAttr, []byte{code})
			}
			if flags&flagTransitive != 0 {
				// Store the flags in the canonical form they will be
				// forwarded with: partial set (RFC 4271 §5 — we did not
				// recognize the attribute) and the extended-length bit
				// dropped (pure encoding, re-derived on marshal). This
				// keeps decode∘encode a fixed point.
				canon := (flags &^ flagExtLen) | flagPartial
				a.Unknown = append(a.Unknown, RawAttr{Flags: canon, Code: code, Value: append([]byte(nil), v...)})
			}
			// Optional non-transitive unknowns are dropped.
		}
	}
	// RFC 6793 §4.2.3 reconciliation: substitute AS4_PATH data when the
	// 2-octet path used AS_TRANS.
	if !opt.AS4 && as4Path != nil {
		a.ASPath = mergeAS4Path(a.ASPath, as4Path)
	}
	if !opt.AS4 && as4Agg != nil && a.Aggregator != nil && a.Aggregator.AS == uint32(ASTrans) {
		a.Aggregator = as4Agg
	}
	return a, discarded, nil
}

// mergeAS4Path implements the RFC 6793 AS_PATH/AS4_PATH merge: if the
// AS4_PATH is no longer than the AS_PATH, its ASNs replace the trailing
// portion of the flattened path.
func mergeAS4Path(path, as4 []Segment) []Segment {
	countASNs := func(segs []Segment) int {
		n := 0
		for _, s := range segs {
			n += len(s.ASNs)
		}
		return n
	}
	np, n4 := countASNs(path), countASNs(as4)
	if n4 > np {
		return path // RFC 6793: ignore AS4_PATH entirely
	}
	lead := np - n4
	var merged []Segment
	for _, s := range path {
		if lead == 0 {
			break
		}
		if len(s.ASNs) <= lead {
			merged = append(merged, Segment{Type: s.Type, ASNs: slices.Clone(s.ASNs)})
			lead -= len(s.ASNs)
			continue
		}
		merged = append(merged, Segment{Type: s.Type, ASNs: slices.Clone(s.ASNs[:lead])})
		lead = 0
	}
	for _, s := range as4 {
		merged = append(merged, Segment{Type: s.Type, ASNs: slices.Clone(s.ASNs)})
	}
	return merged
}
