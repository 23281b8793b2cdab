// Package wire implements the BGP-4 message codec: framing, the four
// RFC 4271 message kinds plus ROUTE-REFRESH (RFC 2918), path attributes
// (including 4-octet AS support, RFC 6793), capabilities (RFC 5492), and
// ADD-PATH NLRI encoding (RFC 7911).
//
// The codec is strict on decode — malformed input yields an error
// carrying the RFC 4271 notification code the receiver should send —
// and canonical on encode, so a marshal/unmarshal round trip is the
// identity on every well-formed message.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"

	"peering/internal/bufpool"
)

// Message framing constants from RFC 4271 §4.1.
const (
	MarkerLen  = 16
	HeaderLen  = 19
	MaxMsgLen  = 4096
	minMsgLen  = HeaderLen
	bgpVersion = 4
)

// MsgType identifies a BGP message kind.
type MsgType uint8

// BGP message type codes.
const (
	MsgOpen         MsgType = 1
	MsgUpdate       MsgType = 2
	MsgNotification MsgType = 3
	MsgKeepalive    MsgType = 4
	MsgRouteRefresh MsgType = 5
)

func (t MsgType) String() string {
	switch t {
	case MsgOpen:
		return "OPEN"
	case MsgUpdate:
		return "UPDATE"
	case MsgNotification:
		return "NOTIFICATION"
	case MsgKeepalive:
		return "KEEPALIVE"
	case MsgRouteRefresh:
		return "ROUTE-REFRESH"
	default:
		return fmt.Sprintf("UNKNOWN(%d)", uint8(t))
	}
}

// Message is any BGP message.
type Message interface {
	Type() MsgType
	// marshalBody appends the message body (everything after the common
	// header) to b.
	marshalBody(b []byte, opt Options) ([]byte, error)
}

// Options carries session-negotiated codec state. ADD-PATH changes the
// NLRI wire format, so both encode and decode must know whether it was
// negotiated; AS4 selects 4-octet AS_PATH encoding (RFC 6793).
type Options struct {
	// AddPath indicates the ADD-PATH capability was negotiated for
	// IPv4/unicast in both directions: NLRI carry a 4-byte path ID.
	AddPath bool
	// AS4 indicates 4-octet AS number support was negotiated. When
	// false, AS_PATH is encoded with 2-octet ASNs, mapping large ASNs
	// to AS_TRANS and emitting an AS4_PATH attribute.
	AS4 bool
}

// DefaultOptions is the codec state of a fresh, pre-OPEN session.
var DefaultOptions = Options{AS4: true}

// Marshal encodes m, including the 19-byte header, using opt.
func Marshal(m Message, opt Options) ([]byte, error) {
	return AppendMessage(make([]byte, 0, 64), m, opt)
}

// marker is the all-ones header marker (RFC 4271 §4.1).
var marker [MarkerLen]byte = [MarkerLen]byte{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

// AppendMessage appends the full encoding of m (19-byte header included)
// to b and returns the extended slice. With a pooled or reused b of
// sufficient capacity the encode performs no allocation; this is the
// session write path's entry point.
func AppendMessage(b []byte, m Message, opt Options) ([]byte, error) {
	start := len(b)
	b = append(b, marker[:]...)
	b = append(b, 0, 0, byte(m.Type()))
	b, err := m.marshalBody(b, opt)
	if err != nil {
		return nil, err
	}
	return closeMessage(b, start, m.Type())
}

// appendUpdate is AppendMessage for an UPDATE held by concrete type:
// nothing is boxed in an interface, so u can stay on the caller's stack.
func appendUpdate(b []byte, u *Update, opt Options) ([]byte, error) {
	start := len(b)
	b = append(b, marker[:]...)
	b = append(b, 0, 0, byte(MsgUpdate))
	b, err := u.marshalBody(b, opt)
	if err != nil {
		return nil, err
	}
	return closeMessage(b, start, MsgUpdate)
}

// closeMessage backfills the length of the message that starts at
// b[start], refusing one longer than MaxMsgLen.
func closeMessage(b []byte, start int, typ MsgType) ([]byte, error) {
	msgLen := len(b) - start
	if msgLen > MaxMsgLen {
		return nil, fmt.Errorf("wire: %s message length %d exceeds %d", typ, msgLen, MaxMsgLen)
	}
	binary.BigEndian.PutUint16(b[start+16:start+18], uint16(msgLen))
	return b, nil
}

// ReadMessage reads and decodes one message from r using opt. The body
// is read into a pooled buffer that is recycled after a successful
// decode — decoders copy every byte they retain, so no decoded message
// aliases the pool. On decode error the buffer is deliberately NOT
// recycled: NotifError retains sub-slices of the body as notification
// data, and error paths are rare enough that leaking them to the GC is
// the right trade.
func ReadMessage(r io.Reader, opt Options) (Message, error) {
	return readMessage(r, opt, nil)
}

// readMessage is ReadMessage decoding attribute blocks through c (nil:
// parse every block).
func readMessage(r io.Reader, opt Options, c *AttrCache) (Message, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	for i := 0; i < MarkerLen; i++ {
		if hdr[i] != 0xff {
			return nil, NotifError(CodeMessageHeaderError, SubConnNotSynchronized, nil)
		}
	}
	length := binary.BigEndian.Uint16(hdr[16:18])
	typ := MsgType(hdr[18])
	if length < minMsgLen || length > MaxMsgLen {
		return nil, NotifError(CodeMessageHeaderError, SubBadMessageLength, hdr[16:18])
	}
	body := bufpool.Get(int(length) - HeaderLen)
	if _, err := io.ReadFull(r, body); err != nil {
		bufpool.Put(body)
		return nil, err
	}
	m, err := decodeBody(typ, body, opt, c)
	if err != nil {
		return nil, err
	}
	bufpool.Put(body)
	return m, nil
}

// Decode decodes a full wire message (header included) from b.
func Decode(b []byte, opt Options) (Message, error) {
	return ReadMessage(bytes.NewReader(b), opt)
}

func decodeBody(typ MsgType, body []byte, opt Options, c *AttrCache) (Message, error) {
	switch typ {
	case MsgOpen:
		return decodeOpen(body)
	case MsgUpdate:
		return decodeUpdate(body, opt, c)
	case MsgNotification:
		return decodeNotification(body)
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, NotifError(CodeMessageHeaderError, SubBadMessageLength, nil)
		}
		return &Keepalive{}, nil
	case MsgRouteRefresh:
		return decodeRouteRefresh(body)
	default:
		return nil, NotifError(CodeMessageHeaderError, SubBadMessageType, []byte{byte(typ)})
	}
}

// ---------------------------------------------------------------------
// OPEN

// Open is the RFC 4271 §4.2 OPEN message.
type Open struct {
	Version  uint8
	AS       uint16 // AS_TRANS (23456) when the real ASN needs 4 octets
	HoldTime uint16 // seconds; 0 disables keepalives
	BGPID    netip.Addr
	Caps     []Capability
}

// ASTrans is the 2-octet placeholder ASN from RFC 6793.
const ASTrans uint16 = 23456

// Type implements Message.
func (*Open) Type() MsgType { return MsgOpen }

func (m *Open) marshalBody(b []byte, _ Options) ([]byte, error) {
	v := m.Version
	if v == 0 {
		v = bgpVersion
	}
	if !m.BGPID.Is4() {
		return nil, fmt.Errorf("wire: OPEN BGP identifier %v is not IPv4", m.BGPID)
	}
	b = append(b, v)
	b = binary.BigEndian.AppendUint16(b, m.AS)
	b = binary.BigEndian.AppendUint16(b, m.HoldTime)
	id := m.BGPID.As4()
	b = append(b, id[:]...)
	// Optional parameters: a single capabilities parameter (type 2).
	caps, err := marshalCapabilities(m.Caps)
	if err != nil {
		return nil, err
	}
	if len(caps) == 0 {
		b = append(b, 0) // opt param len
		return b, nil
	}
	if len(caps) > 253 {
		return nil, fmt.Errorf("wire: capabilities too long (%d bytes)", len(caps))
	}
	b = append(b, byte(len(caps)+2), 2, byte(len(caps)))
	b = append(b, caps...)
	return b, nil
}

func decodeOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, NotifError(CodeMessageHeaderError, SubBadMessageLength, nil)
	}
	m := &Open{
		Version:  body[0],
		AS:       binary.BigEndian.Uint16(body[1:3]),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		BGPID:    netip.AddrFrom4([4]byte(body[5:9])),
	}
	if m.Version != bgpVersion {
		return nil, NotifError(CodeOpenMessageError, SubUnsupportedVersionNumber, []byte{0, bgpVersion})
	}
	// Hold time of 1 or 2 seconds is forbidden (RFC 4271 §4.2).
	if m.HoldTime == 1 || m.HoldTime == 2 {
		return nil, NotifError(CodeOpenMessageError, SubUnacceptableHoldTime, nil)
	}
	optLen := int(body[9])
	opts := body[10:]
	if optLen != len(opts) {
		return nil, NotifError(CodeOpenMessageError, SubUnspecificOpen, nil)
	}
	for len(opts) > 0 {
		if len(opts) < 2 {
			return nil, NotifError(CodeOpenMessageError, SubUnspecificOpen, nil)
		}
		ptype, plen := opts[0], int(opts[1])
		if len(opts) < 2+plen {
			return nil, NotifError(CodeOpenMessageError, SubUnspecificOpen, nil)
		}
		if ptype == 2 { // capabilities
			caps, err := parseCapabilities(opts[2 : 2+plen])
			if err != nil {
				return nil, err
			}
			m.Caps = append(m.Caps, caps...)
		}
		// Unknown optional parameters are skipped.
		opts = opts[2+plen:]
	}
	return m, nil
}

// FourOctetAS extracts the negotiated 4-octet ASN from the OPEN, falling
// back to the 2-octet My-AS field.
func (m *Open) FourOctetAS() uint32 {
	for _, c := range m.Caps {
		if c.Code == CapFourOctetAS && len(c.Value) == 4 {
			return binary.BigEndian.Uint32(c.Value)
		}
	}
	return uint32(m.AS)
}

// HasAddPath reports whether the OPEN offers ADD-PATH for IPv4/unicast
// in both send and receive directions.
func (m *Open) HasAddPath() bool {
	for _, c := range m.Caps {
		if c.Code != CapAddPath {
			continue
		}
		v := c.Value
		for len(v) >= 4 {
			afi := binary.BigEndian.Uint16(v[0:2])
			safi, dir := v[2], v[3]
			if afi == AFIIPv4 && safi == SAFIUnicast && dir == 3 {
				return true
			}
			v = v[4:]
		}
	}
	return false
}

// ---------------------------------------------------------------------
// KEEPALIVE

// Keepalive is the empty-body RFC 4271 §4.4 message.
type Keepalive struct{}

// Type implements Message.
func (*Keepalive) Type() MsgType { return MsgKeepalive }

func (*Keepalive) marshalBody(b []byte, _ Options) ([]byte, error) { return b, nil }

// ---------------------------------------------------------------------
// NOTIFICATION

// Notification is the RFC 4271 §4.5 error message.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Type implements Message.
func (*Notification) Type() MsgType { return MsgNotification }

func (m *Notification) marshalBody(b []byte, _ Options) ([]byte, error) {
	b = append(b, m.Code, m.Subcode)
	return append(b, m.Data...), nil
}

func decodeNotification(body []byte) (*Notification, error) {
	if len(body) < 2 {
		return nil, NotifError(CodeMessageHeaderError, SubBadMessageLength, nil)
	}
	return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
}

func (m *Notification) String() string {
	return fmt.Sprintf("NOTIFICATION %s", notifName(m.Code, m.Subcode))
}

// ---------------------------------------------------------------------
// ROUTE-REFRESH

// AFI/SAFI constants.
const (
	AFIIPv4     uint16 = 1
	AFIIPv6     uint16 = 2
	SAFIUnicast uint8  = 1
)

// RouteRefresh is the RFC 2918 route refresh request.
type RouteRefresh struct {
	AFI  uint16
	SAFI uint8
}

// Type implements Message.
func (*RouteRefresh) Type() MsgType { return MsgRouteRefresh }

func (m *RouteRefresh) marshalBody(b []byte, _ Options) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, m.AFI)
	return append(b, 0, m.SAFI), nil
}

func decodeRouteRefresh(body []byte) (*RouteRefresh, error) {
	if len(body) != 4 {
		return nil, NotifError(CodeMessageHeaderError, SubBadMessageLength, nil)
	}
	return &RouteRefresh{AFI: binary.BigEndian.Uint16(body[0:2]), SAFI: body[3]}, nil
}

// ---------------------------------------------------------------------
// UPDATE

// PathID is an ADD-PATH route identifier (RFC 7911). Zero when ADD-PATH
// is not in use.
type PathID uint32

// NLRI is one reachable or withdrawn destination.
type NLRI struct {
	Prefix netip.Prefix
	// ID distinguishes multiple paths for the same prefix when
	// ADD-PATH is negotiated.
	ID PathID
}

func (n NLRI) String() string {
	if n.ID == 0 {
		return n.Prefix.String()
	}
	return fmt.Sprintf("%s(path %d)", n.Prefix, n.ID)
}

// Update is the RFC 4271 §4.3 UPDATE message.
type Update struct {
	Withdrawn []NLRI
	Attrs     *Attrs
	Reach     []NLRI
	// Refresh marks an Update synthesized locally from an inbound
	// ROUTE-REFRESH request. It is never encoded on the wire; it exists
	// so receivers can tell a refresh request apart from an End-of-RIB
	// marker, which is also an empty UPDATE (RFC 4724 §2).
	Refresh bool
	// Malformed records that RFC 7606 treat-as-withdraw handling was
	// applied on decode: the message carried an error that poisons its
	// routes but not the session, so its NLRI were moved into Withdrawn
	// and Attrs cleared. Never set on messages built for sending.
	Malformed *Error
	// Discarded lists attribute type codes dropped on decode by RFC
	// 7606 attribute-discard handling. Never set on messages built for
	// sending.
	Discarded []uint8
}

// IsEndOfRIB reports whether u is the RFC 4724 End-of-RIB marker: an
// UPDATE with no withdrawn routes, no path attributes, and no NLRI.
// Speakers send it after replaying their table so graceful-restart
// receivers know which retained stale routes to flush.
func (u *Update) IsEndOfRIB() bool {
	// A treat-as-withdraw UPDATE whose NLRI happened to be empty also
	// ends up with no routes and no attributes; it must not pass for an
	// End-of-RIB, which would trigger a stale sweep.
	return len(u.Withdrawn) == 0 && len(u.Reach) == 0 && u.Attrs == nil && !u.Refresh && u.Malformed == nil
}

// Type implements Message.
func (*Update) Type() MsgType { return MsgUpdate }

func (m *Update) marshalBody(b []byte, opt Options) ([]byte, error) {
	// Both length fields are reserved up front and backfilled, so the
	// whole body encodes into b with no intermediate slices.
	wdStart := len(b)
	b = append(b, 0, 0)
	b, err := appendNLRIs(b, m.Withdrawn, opt.AddPath)
	if err != nil {
		return nil, err
	}
	wdLen := len(b) - wdStart - 2
	if wdLen > 0xffff {
		return nil, errors.New("wire: withdrawn routes too long")
	}
	binary.BigEndian.PutUint16(b[wdStart:wdStart+2], uint16(wdLen))
	atStart := len(b)
	b = append(b, 0, 0)
	if m.Attrs != nil {
		b, err = m.Attrs.appendMarshal(b, opt)
		if err != nil {
			return nil, err
		}
	} else if len(m.Reach) > 0 {
		return nil, errors.New("wire: UPDATE with NLRI requires path attributes")
	}
	attrLen := len(b) - atStart - 2
	if attrLen > 0xffff {
		return nil, errors.New("wire: path attributes too long")
	}
	binary.BigEndian.PutUint16(b[atStart:atStart+2], uint16(attrLen))
	return appendNLRIs(b, m.Reach, opt.AddPath)
}

// decodeUpdate decodes an UPDATE body, its attribute block through c
// (nil: parsed afresh).
func decodeUpdate(body []byte, opt Options, c *AttrCache) (*Update, error) {
	if len(body) < 4 {
		return nil, NotifError(CodeUpdateMessageError, SubMalformedAttributeList, nil)
	}
	wdLen := int(binary.BigEndian.Uint16(body[0:2]))
	if len(body) < 2+wdLen+2 {
		return nil, NotifError(CodeUpdateMessageError, SubMalformedAttributeList, nil)
	}
	m := &Update{}
	var err error
	m.Withdrawn, err = parseNLRIs(body[2:2+wdLen], opt.AddPath)
	if err != nil {
		return nil, err
	}
	rest := body[2+wdLen:]
	attrLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if len(rest) < 2+attrLen {
		return nil, NotifError(CodeUpdateMessageError, SubMalformedAttributeList, nil)
	}
	// A treat-as-withdraw attrErr (RFC 7606): the session survives, the
	// routes do not. The NLRI field is still parsed below — NLRI damage
	// stays fatal (§5.3) — and its prefixes join the withdrawn set.
	var attrErr *Error
	if attrLen > 0 {
		m.Attrs, m.Discarded, attrErr, err = c.decode(rest[2:2+attrLen], opt)
		if err != nil {
			return nil, err
		}
	}
	m.Reach, err = parseNLRIs(rest[2+attrLen:], opt.AddPath)
	if err != nil {
		return nil, err
	}
	if attrErr == nil && len(m.Reach) > 0 && m.Attrs == nil {
		// Mandatory attributes absent with NLRI present: RFC 7606 §3(d)
		// downgrades this from session reset to treat-as-withdraw.
		attrErr = withdrawError(SubMissingWellKnownAttribute, nil)
	}
	if attrErr != nil {
		m.Withdrawn = append(m.Withdrawn, m.Reach...)
		m.Reach = nil
		m.Attrs = nil
		m.Malformed = attrErr
	}
	return m, nil
}

// appendNLRIs appends prefixes in RFC 4271 compact form, with RFC 7911
// path IDs when addPath is set.
func appendNLRIs(b []byte, ns []NLRI, addPath bool) ([]byte, error) {
	for _, n := range ns {
		if !n.Prefix.IsValid() {
			return nil, fmt.Errorf("wire: invalid NLRI prefix %v", n.Prefix)
		}
		if !n.Prefix.Addr().Is4() {
			return nil, fmt.Errorf("wire: IPv6 NLRI %v requires MP-BGP (not in base UPDATE)", n.Prefix)
		}
		if addPath {
			b = binary.BigEndian.AppendUint32(b, uint32(n.ID))
		}
		bits := n.Prefix.Bits()
		b = append(b, byte(bits))
		addr := n.Prefix.Masked().Addr().As4()
		b = append(b, addr[:(bits+7)/8]...)
	}
	return b, nil
}

func parseNLRIs(b []byte, addPath bool) ([]NLRI, error) {
	if len(b) == 0 {
		return nil, nil
	}
	// Pre-count entries so the result is allocated once at exact size
	// (a full UPDATE carries hundreds of NLRIs; append growth would
	// roughly double the bytes).
	count, rest := 0, b
	for len(rest) > 0 {
		hdr := 1
		if addPath {
			hdr += 4
		}
		if len(rest) < hdr {
			return nil, NotifError(CodeUpdateMessageError, SubInvalidNetworkField, nil)
		}
		bits := int(rest[hdr-1])
		if bits > 32 {
			return nil, NotifError(CodeUpdateMessageError, SubInvalidNetworkField, nil)
		}
		nb := (bits + 7) / 8
		if len(rest) < hdr+nb {
			return nil, NotifError(CodeUpdateMessageError, SubInvalidNetworkField, nil)
		}
		rest = rest[hdr+nb:]
		count++
	}
	ns := make([]NLRI, 0, count)
	for len(b) > 0 {
		var n NLRI
		if addPath {
			if len(b) < 4 {
				return nil, NotifError(CodeUpdateMessageError, SubInvalidNetworkField, nil)
			}
			n.ID = PathID(binary.BigEndian.Uint32(b[0:4]))
			b = b[4:]
		}
		if len(b) < 1 {
			return nil, NotifError(CodeUpdateMessageError, SubInvalidNetworkField, nil)
		}
		bits := int(b[0])
		if bits > 32 {
			return nil, NotifError(CodeUpdateMessageError, SubInvalidNetworkField, nil)
		}
		nb := (bits + 7) / 8
		if len(b) < 1+nb {
			return nil, NotifError(CodeUpdateMessageError, SubInvalidNetworkField, nil)
		}
		var a [4]byte
		copy(a[:], b[1:1+nb])
		p := netip.PrefixFrom(netip.AddrFrom4(a), bits).Masked()
		n.Prefix = p
		ns = append(ns, n)
		b = b[1+nb:]
	}
	return ns, nil
}
