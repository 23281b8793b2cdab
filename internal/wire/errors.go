package wire

import "fmt"

// Notification error codes (RFC 4271 §4.5).
const (
	CodeMessageHeaderError uint8 = 1
	CodeOpenMessageError   uint8 = 2
	CodeUpdateMessageError uint8 = 3
	CodeHoldTimerExpired   uint8 = 4
	CodeFSMError           uint8 = 5
	CodeCease              uint8 = 6
)

// Message header error subcodes.
const (
	SubConnNotSynchronized uint8 = 1
	SubBadMessageLength    uint8 = 2
	SubBadMessageType      uint8 = 3
)

// OPEN message error subcodes.
const (
	SubUnsupportedVersionNumber uint8 = 1
	SubBadPeerAS                uint8 = 2
	SubBadBGPIdentifier         uint8 = 3
	SubUnsupportedOptionalParam uint8 = 4
	SubUnacceptableHoldTime     uint8 = 6
	SubUnspecificOpen           uint8 = 0
)

// UPDATE message error subcodes.
const (
	SubMalformedAttributeList    uint8 = 1
	SubUnrecognizedWellKnownAttr uint8 = 2
	SubMissingWellKnownAttribute uint8 = 3
	SubAttributeFlagsError       uint8 = 4
	SubAttributeLengthError      uint8 = 5
	SubInvalidOriginAttribute    uint8 = 6
	SubInvalidNextHopAttribute   uint8 = 8
	SubOptionalAttributeError    uint8 = 9
	SubInvalidNetworkField       uint8 = 10
	SubMalformedASPath           uint8 = 11
)

// Cease subcodes (RFC 4486).
const (
	SubMaxPrefixesReached      uint8 = 1
	SubAdminShutdown           uint8 = 2
	SubPeerDeconfigured        uint8 = 3
	SubAdminReset              uint8 = 4
	SubConnectionRejected      uint8 = 5
	SubOtherConfigChange       uint8 = 6
	SubConnCollisionResolution uint8 = 7
	SubOutOfResources          uint8 = 8
)

// ErrorAction is the RFC 7606 revised handling for a malformed UPDATE.
// It decides how much state one bad message may take down: the whole
// session, just the routes the message carried, or only the offending
// attribute.
type ErrorAction uint8

// Error actions, from most to least destructive (RFC 7606 §2).
const (
	// ActionSessionReset tears the session down with a NOTIFICATION.
	// Reserved for errors that make the rest of the message — or the
	// rest of the stream — unparseable: framing corruption, attribute
	// list length mismatches, and NLRI field errors (§5.3).
	ActionSessionReset ErrorAction = iota
	// ActionTreatAsWithdraw keeps the session but treats every NLRI in
	// the UPDATE as withdrawn: the routes cannot be trusted, the peer
	// can.
	ActionTreatAsWithdraw
	// ActionAttributeDiscard drops only the malformed attribute; it is
	// used where the attribute cannot influence route selection
	// (ATOMIC_AGGREGATE, AGGREGATOR, AS4_*).
	ActionAttributeDiscard
)

func (a ErrorAction) String() string {
	switch a {
	case ActionSessionReset:
		return "session-reset"
	case ActionTreatAsWithdraw:
		return "treat-as-withdraw"
	case ActionAttributeDiscard:
		return "attribute-discard"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// Error is a protocol violation detected by the codec or FSM; it maps
// directly to the NOTIFICATION the local speaker should emit when
// Action is ActionSessionReset, and records the downgraded handling
// otherwise.
type Error struct {
	Code    uint8
	Subcode uint8
	Data    []byte
	// Action is the RFC 7606 severity. The zero value is session-reset,
	// so every pre-7606 construction site keeps its original meaning.
	Action ErrorAction
}

// NotifError builds a session-reset *Error.
func NotifError(code, sub uint8, data []byte) *Error {
	return &Error{Code: code, Subcode: sub, Data: data}
}

// withdrawError builds an UPDATE error handled as treat-as-withdraw.
func withdrawError(sub uint8, data []byte) *Error {
	return &Error{Code: CodeUpdateMessageError, Subcode: sub, Data: data, Action: ActionTreatAsWithdraw}
}

func (e *Error) Error() string {
	return fmt.Sprintf("bgp: %s", notifName(e.Code, e.Subcode))
}

// Notification converts the error to its wire message.
func (e *Error) Notification() *Notification {
	return &Notification{Code: e.Code, Subcode: e.Subcode, Data: e.Data}
}

func notifName(code, sub uint8) string {
	var c string
	switch code {
	case CodeMessageHeaderError:
		c = "message header error"
	case CodeOpenMessageError:
		c = "OPEN message error"
	case CodeUpdateMessageError:
		c = "UPDATE message error"
	case CodeHoldTimerExpired:
		c = "hold timer expired"
	case CodeFSMError:
		c = "FSM error"
	case CodeCease:
		c = "cease"
	default:
		c = fmt.Sprintf("code %d", code)
	}
	return fmt.Sprintf("%s (subcode %d)", c, sub)
}
