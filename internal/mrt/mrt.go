// Package mrt implements the MRT export format (RFC 6396) that the
// measurement community's BGP archives — RouteViews, RIPE RIS — are
// built on: BGP4MP/BGP4MP_ET update records and TABLE_DUMP_V2 RIB
// snapshots, including the 4-octet-AS and ADD-PATH (RFC 8050) record
// variants the testbed's BIRD mode produces.
//
// The package provides a streaming encoder/decoder (Writer, Reader), a
// size/age-rotating archive writer (Archive) the collector feeds, and a
// replay engine (Replay, ReplaySession) that plays an archived trace
// back through a live BGP session — timestamp-faithfully on an injected
// clock, or as fast as the receiver can drain for benchmarking. A trace
// on disk turns a one-off testbed run into a reproducible corpus: the
// same workload can be replayed against both mux modes and against
// future versions of the server.
package mrt

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Type is an MRT record type (RFC 6396 §4).
type Type uint16

// Record types the testbed produces and consumes.
const (
	// TypeTableDumpV2 carries RIB snapshots (RFC 6396 §4.3).
	TypeTableDumpV2 Type = 13
	// TypeBGP4MP carries BGP messages with one-second timestamps
	// (RFC 6396 §4.4).
	TypeBGP4MP Type = 16
	// TypeBGP4MPET is BGP4MP with an extended microsecond timestamp
	// (RFC 6396 §3).
	TypeBGP4MPET Type = 17
)

func (t Type) String() string {
	switch t {
	case TypeTableDumpV2:
		return "TABLE_DUMP_V2"
	case TypeBGP4MP:
		return "BGP4MP"
	case TypeBGP4MPET:
		return "BGP4MP_ET"
	default:
		return fmt.Sprintf("TYPE(%d)", uint16(t))
	}
}

// BGP4MP subtypes (RFC 6396 §4.4, RFC 8050 §3).
const (
	SubtypeBGP4MPMessage           uint16 = 1 // 2-octet peer ASes
	SubtypeBGP4MPMessageAS4        uint16 = 4 // 4-octet peer ASes
	SubtypeBGP4MPMessageAddPath    uint16 = 8 // RFC 8050: NLRI carry path IDs
	SubtypeBGP4MPMessageAS4AddPath uint16 = 9
)

// TABLE_DUMP_V2 subtypes (RFC 6396 §4.3, RFC 8050 §2).
const (
	SubtypePeerIndexTable        uint16 = 1
	SubtypeRIBIPv4Unicast        uint16 = 2
	SubtypeRIBIPv4UnicastAddPath uint16 = 8 // RFC 8050
)

// SubtypeString names a (type, subtype) pair for human-readable output.
func SubtypeString(t Type, sub uint16) string {
	switch t {
	case TypeBGP4MP, TypeBGP4MPET:
		switch sub {
		case SubtypeBGP4MPMessage:
			return "MESSAGE"
		case SubtypeBGP4MPMessageAS4:
			return "MESSAGE_AS4"
		case SubtypeBGP4MPMessageAddPath:
			return "MESSAGE_ADDPATH"
		case SubtypeBGP4MPMessageAS4AddPath:
			return "MESSAGE_AS4_ADDPATH"
		}
	case TypeTableDumpV2:
		switch sub {
		case SubtypePeerIndexTable:
			return "PEER_INDEX_TABLE"
		case SubtypeRIBIPv4Unicast:
			return "RIB_IPV4_UNICAST"
		case SubtypeRIBIPv4UnicastAddPath:
			return "RIB_IPV4_UNICAST_ADDPATH"
		}
	}
	return fmt.Sprintf("SUBTYPE(%d)", sub)
}

// headerLen is the RFC 6396 §2 common header: timestamp(4), type(2),
// subtype(2), length(4).
const headerLen = 12

// MaxBodyLen bounds a record body on decode. The RFC does not bound
// records; this guard keeps a corrupt length field from allocating
// gigabytes. A BGP message is at most 4 KiB and our RIB records pack a
// bounded entry set, so 16 MiB is far above anything legitimate.
const MaxBodyLen = 16 << 20

// Record is one MRT record: the common-header fields plus the body.
//
// For BGP4MP_ET records the RFC's extended timestamp (a 4-byte
// microseconds field that the wire format counts as part of the body)
// is folded into Time on decode and regenerated from Time on encode;
// Body always excludes it. Encoding is canonical, so decoding a record
// and re-encoding it reproduces the input bytes exactly.
type Record struct {
	// Time is the record timestamp. BGP4MP and TABLE_DUMP_V2 keep
	// one-second precision on the wire; BGP4MPET keeps microseconds.
	Time    time.Time
	Type    Type
	Subtype uint16
	Body    []byte
}

// extendedTime reports whether the record carries the RFC 6396 §3
// microsecond timestamp extension.
func (r *Record) extendedTime() bool { return r.Type == TypeBGP4MPET }

// AppendTo appends the record's wire encoding to b.
func (r *Record) AppendTo(b []byte) ([]byte, error) {
	bodyLen := len(r.Body)
	if r.extendedTime() {
		bodyLen += 4
	}
	if bodyLen > MaxBodyLen {
		return nil, fmt.Errorf("mrt: record body %d bytes exceeds %d", bodyLen, MaxBodyLen)
	}
	sec := r.Time.Unix()
	if sec < 0 || sec > math.MaxUint32 {
		return nil, fmt.Errorf("mrt: timestamp %v outside the 32-bit epoch", r.Time)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(sec))
	b = binary.BigEndian.AppendUint16(b, uint16(r.Type))
	b = binary.BigEndian.AppendUint16(b, r.Subtype)
	b = binary.BigEndian.AppendUint32(b, uint32(bodyLen))
	if r.extendedTime() {
		b = binary.BigEndian.AppendUint32(b, uint32(r.Time.Nanosecond()/1000))
	}
	return append(b, r.Body...), nil
}

// Marshal returns the record's wire encoding.
func (r *Record) Marshal() ([]byte, error) { return r.AppendTo(nil) }

// Unmarshal decodes one record from the front of b, returning the
// number of bytes consumed.
func Unmarshal(b []byte) (*Record, int, error) {
	if len(b) < headerLen {
		return nil, 0, fmt.Errorf("mrt: truncated header (%d bytes)", len(b))
	}
	r := &Record{
		Type:    Type(binary.BigEndian.Uint16(b[4:6])),
		Subtype: binary.BigEndian.Uint16(b[6:8]),
	}
	sec := binary.BigEndian.Uint32(b[0:4])
	length := int(binary.BigEndian.Uint32(b[8:12]))
	if length > MaxBodyLen {
		return nil, 0, fmt.Errorf("mrt: record length %d exceeds %d", length, MaxBodyLen)
	}
	if len(b) < headerLen+length {
		return nil, 0, fmt.Errorf("mrt: truncated record (want %d body bytes, have %d)", length, len(b)-headerLen)
	}
	body := b[headerLen : headerLen+length]
	micro := uint32(0)
	if r.extendedTime() {
		if length < 4 {
			return nil, 0, fmt.Errorf("mrt: BGP4MP_ET record too short for extended timestamp")
		}
		micro = binary.BigEndian.Uint32(body[0:4])
		if micro > 999_999 {
			return nil, 0, fmt.Errorf("mrt: extended timestamp %dµs out of range", micro)
		}
		body = body[4:]
	}
	r.Time = time.Unix(int64(sec), int64(micro)*1000).UTC()
	r.Body = append([]byte(nil), body...)
	return r, headerLen + length, nil
}
