package wire

import (
	"encoding/binary"
	"fmt"
)

// Capability codes (RFC 5492 registry).
const (
	CapMultiprotocol uint8 = 1
	CapRouteRefresh  uint8 = 2
	CapFourOctetAS   uint8 = 65
	CapAddPath       uint8 = 69
)

// ADD-PATH send/receive directions (RFC 7911 §4).
const (
	AddPathReceive uint8 = 1
	AddPathSend    uint8 = 2
	AddPathBoth    uint8 = 3
)

// Capability is one RFC 5492 capability TLV.
type Capability struct {
	Code  uint8
	Value []byte
}

func (c Capability) String() string {
	switch c.Code {
	case CapMultiprotocol:
		return "multiprotocol"
	case CapRouteRefresh:
		return "route-refresh"
	case CapFourOctetAS:
		if len(c.Value) == 4 {
			return fmt.Sprintf("4-octet-as(%d)", binary.BigEndian.Uint32(c.Value))
		}
		return "4-octet-as"
	case CapAddPath:
		return "add-path"
	default:
		return fmt.Sprintf("cap(%d)", c.Code)
	}
}

// CapFourOctet builds the 4-octet AS number capability.
func CapFourOctet(asn uint32) Capability {
	v := make([]byte, 4)
	binary.BigEndian.PutUint32(v, asn)
	return Capability{Code: CapFourOctetAS, Value: v}
}

// CapAddPathIPv4 builds the ADD-PATH capability for IPv4/unicast with
// the given direction.
func CapAddPathIPv4(dir uint8) Capability {
	v := make([]byte, 4)
	binary.BigEndian.PutUint16(v, AFIIPv4)
	v[2], v[3] = SAFIUnicast, dir
	return Capability{Code: CapAddPath, Value: v}
}

// StandardCaps returns the capability set PEERING routers advertise:
// route refresh, 4-octet AS, and optionally ADD-PATH (both directions).
func StandardCaps(asn uint32, addPath bool) []Capability {
	caps := []Capability{
		{Code: CapRouteRefresh},
		CapFourOctet(asn),
	}
	if addPath {
		caps = append(caps, CapAddPathIPv4(AddPathBoth))
	}
	return caps
}

func marshalCapabilities(caps []Capability) ([]byte, error) {
	var b []byte
	for _, c := range caps {
		if len(c.Value) > 255 {
			return nil, fmt.Errorf("wire: capability %d value too long", c.Code)
		}
		b = append(b, c.Code, byte(len(c.Value)))
		b = append(b, c.Value...)
	}
	return b, nil
}

func parseCapabilities(b []byte) ([]Capability, error) {
	var caps []Capability
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, NotifError(CodeOpenMessageError, SubUnspecificOpen, nil)
		}
		code, vlen := b[0], int(b[1])
		if len(b) < 2+vlen {
			return nil, NotifError(CodeOpenMessageError, SubUnspecificOpen, nil)
		}
		caps = append(caps, Capability{Code: code, Value: append([]byte(nil), b[2:2+vlen]...)})
		b = b[2+vlen:]
	}
	return caps, nil
}
