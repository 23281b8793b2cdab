package bgp

import (
	"strings"

	"peering/internal/telemetry"
	"peering/internal/wire"
)

// Metrics is the session layer's instrument set, shared by every
// session and supervisor created with the same Config.Metrics. One
// instance per registry: construct with NewMetrics and hand the same
// pointer to all session configs. A nil *Metrics disables session
// instrumentation (each method guards itself), so tests and embedded
// uses pay nothing.
type Metrics struct {
	// MsgsIn / MsgsOut count BGP messages by type ("open", "update",
	// "keepalive", "notification", "refresh") crossing any session.
	MsgsIn  *telemetry.CounterVec
	MsgsOut *telemetry.CounterVec
	// Sessions gauges how many sessions currently sit in each FSM
	// state; a session leaves the gauge entirely when it closes.
	Sessions *telemetry.GaugeVec
	// SessionsClosed counts session terminations over all time.
	SessionsClosed *telemetry.Counter
	// Reconnects counts supervisor redial attempts (not initial dials);
	// Recoveries counts sessions re-established after ≥1 failure.
	Reconnects *telemetry.Counter
	Recoveries *telemetry.Counter
	// Errors counts RFC 7606 containment actions taken on inbound
	// UPDATEs, by action ("treat_as_withdraw", "attribute_discard",
	// "session_reset"). Counted at ingress on every session — client
	// and upstream alike — so the server inherits coverage for free.
	Errors *telemetry.CounterVec
	// AttrDecodes counts inbound attribute blocks on sessions that
	// decode through a cache (Config.Intern), by result: "cached" (the
	// block was seen recently and not parsed) or "parsed". The first
	// over the sum is the cache's hit rate on a real feed.
	AttrDecodes *telemetry.CounterVec

	// in / out are the MsgsIn / MsgsOut children by wire.MsgType,
	// resolved once here so counting a message is one atomic add
	// instead of CounterVec.With's label-key formatting and lock. A
	// type outside the table (never sent by a conforming peer) takes
	// the vec path under "unknown".
	in, out [wire.MsgRouteRefresh + 1]*telemetry.Counter
	// decodes are the AttrDecodes children by wire.AttrSource.
	decodes [wire.AttrsParsed + 1]*telemetry.Counter
}

// NewMetrics registers the session layer's metrics on r.
func NewMetrics(r *telemetry.Registry) *Metrics {
	m := &Metrics{
		MsgsIn: r.CounterVec("peering_bgp_messages_in_total",
			"BGP messages received, by message type.", "type"),
		MsgsOut: r.CounterVec("peering_bgp_messages_out_total",
			"BGP messages sent, by message type.", "type"),
		Sessions: r.GaugeVec("peering_bgp_sessions",
			"Live BGP sessions by FSM state.", "state"),
		SessionsClosed: r.Counter("peering_bgp_sessions_closed_total",
			"BGP sessions terminated (any reason)."),
		Reconnects: r.Counter("peering_bgp_reconnect_attempts_total",
			"Supervised session redial attempts."),
		Recoveries: r.Counter("peering_bgp_session_recoveries_total",
			"Sessions re-established after at least one failure."),
		Errors: r.CounterVec("peering_errors_total",
			"RFC 7606 UPDATE error-handling actions taken, by action.", "action"),
		AttrDecodes: r.CounterVec("peering_attr_decode_total",
			"Inbound attribute blocks on caching sessions, by result (cached or parsed).", "result"),
	}
	m.decodes[wire.AttrsCached] = m.AttrDecodes.With("cached")
	m.decodes[wire.AttrsParsed] = m.AttrDecodes.With("parsed")
	for t := wire.MsgOpen; t <= wire.MsgRouteRefresh; t++ {
		m.in[t] = m.MsgsIn.With(msgTypeLabel(t))
		m.out[t] = m.MsgsOut.With(msgTypeLabel(t))
	}
	return m
}

// msgIn / msgOut / sessionState / sessionClosed are the nil-safe hooks
// sessions call; keeping them here keeps session.go free of guards.

func (m *Metrics) msgIn(msg wire.Message) {
	if m != nil {
		msgChild(m.MsgsIn, &m.in, msg.Type()).Inc()
	}
}

func (m *Metrics) msgOut(msg wire.Message) {
	if m != nil {
		msgChild(m.MsgsOut, &m.out, msg.Type()).Inc()
	}
}

// msgOutUpdates counts n UPDATEs written at once (a pre-encoded frame).
func (m *Metrics) msgOutUpdates(n int) {
	if m != nil && n > 0 {
		m.out[wire.MsgUpdate].Add(uint64(n))
	}
}

func msgChild(vec *telemetry.CounterVec, byType *[wire.MsgRouteRefresh + 1]*telemetry.Counter, t wire.MsgType) *telemetry.Counter {
	if int(t) < len(byType) && byType[t] != nil {
		return byType[t]
	}
	return vec.With(msgTypeLabel(t))
}

// sessionState moves a session from FSM state old to new on the state
// gauge; old < 0 means the session is new (nothing to decrement).
func (m *Metrics) sessionState(old, new State) {
	if m == nil {
		return
	}
	if old >= 0 {
		m.Sessions.With(stateLabel(old)).Dec()
	}
	m.Sessions.With(stateLabel(new)).Inc()
}

// sessionClosed removes a closing session from the state gauge and
// counts the termination.
func (m *Metrics) sessionClosed(last State) {
	if m == nil {
		return
	}
	m.Sessions.With(stateLabel(last)).Dec()
	m.SessionsClosed.Inc()
}

// attrDecode counts where one UPDATE's attribute block came from;
// wire.AttrsNone (no block, or no cache) counts nothing.
func (m *Metrics) attrDecode(src wire.AttrSource) {
	if m != nil && m.decodes[src] != nil {
		m.decodes[src].Inc()
	}
}

// errorAction counts one RFC 7606 containment action.
func (m *Metrics) errorAction(action string) {
	if m != nil {
		m.Errors.With(action).Inc()
	}
}

func (m *Metrics) reconnect() {
	if m != nil {
		m.Reconnects.Inc()
	}
}

func (m *Metrics) recovery() {
	if m != nil {
		m.Recoveries.Inc()
	}
}

// msgTypeLabel maps a wire message type to its metric label.
func msgTypeLabel(t wire.MsgType) string {
	switch t {
	case wire.MsgOpen:
		return "open"
	case wire.MsgUpdate:
		return "update"
	case wire.MsgNotification:
		return "notification"
	case wire.MsgKeepalive:
		return "keepalive"
	case wire.MsgRouteRefresh:
		return "refresh"
	default:
		return "unknown"
	}
}

// stateLabel is the lowercase FSM state name used as the state gauge's
// label value.
func stateLabel(s State) string { return strings.ToLower(s.String()) }
