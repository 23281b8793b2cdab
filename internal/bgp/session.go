// Package bgp implements the BGP-4 session layer: the RFC 4271 §8
// finite state machine, OPEN negotiation (hold time, 4-octet AS,
// ADD-PATH), keepalive/hold timers, and message exchange over any
// net.Conn.
//
// Sessions are transport-agnostic: PEERING servers run them over real
// TCP to upstream peers, over tunnel streams to clients, and over
// in-memory pipes inside emulations — identical code on every path,
// which is exactly the property the testbed relies on ("from each
// client's perspective, it essentially has direct connections to the
// upstream and peer ASes").
//
// Sessions and supervisors are instrumented through a shared, optional
// Metrics instance (Config.Metrics): message counts by type, a live
// per-FSM-state session gauge, and redial/recovery counters, all on
// the unified telemetry registry. A nil Metrics disables recording, so
// the package stays usable standalone.
package bgp

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"peering/internal/bufpool"
	"peering/internal/clock"
	"peering/internal/telemetry"
	"peering/internal/wire"
)

// State is an FSM state (RFC 4271 §8.2.2). Connect/Active live in the
// dialer; a Session starts at OpenSent once a transport exists.
type State int32

// FSM states.
const (
	StateIdle State = iota
	StateConnect
	StateActive
	StateOpenSent
	StateOpenConfirm
	StateEstablished
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateConnect:
		return "Connect"
	case StateActive:
		return "Active"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	case StateClosed:
		return "Closed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// DefaultHoldTime is used when the config leaves HoldTime zero.
const DefaultHoldTime = 90 * time.Second

// PeerClosedError is the terminal error of a session whose neighbor sent
// a NOTIFICATION. Supervisors use it to tell an administrative shutdown
// (Cease — do not redial) from a protocol failure (redial).
type PeerClosedError struct {
	Notif *wire.Notification
}

// Error implements error.
func (e *PeerClosedError) Error() string {
	return fmt.Sprintf("bgp: peer sent %v", e.Notif)
}

// IsPeerCease reports whether err means the peer administratively closed
// the session with a Cease NOTIFICATION.
func IsPeerCease(err error) bool {
	var pc *PeerClosedError
	return errors.As(err, &pc) && pc.Notif.Code == wire.CodeCease
}

// Config parameterizes one session endpoint.
type Config struct {
	// LocalAS is our autonomous system number.
	LocalAS uint32
	// LocalID is our BGP identifier (an IPv4 address).
	LocalID netip.Addr
	// PeerAS, when nonzero, is enforced against the neighbor's OPEN.
	PeerAS uint32
	// HoldTime is our proposed hold time; the session uses
	// min(ours, theirs). Zero means DefaultHoldTime.
	HoldTime time.Duration
	// AddPath offers the ADD-PATH capability (both directions) for
	// IPv4 unicast. It takes effect only if the peer offers it too.
	AddPath bool
	// Clock drives keepalive and hold timers; nil means the system
	// clock.
	Clock clock.Clock
	// Describe labels the session in errors and logs.
	Describe string
	// Metrics, when non-nil, receives message counts and FSM state
	// transitions for this session (shared across all sessions built
	// with the same instance; see NewMetrics).
	Metrics *Metrics
}

// Handler receives session events. Calls are serialized per session.
type Handler interface {
	// Established fires when the session reaches Established.
	Established(*Session)
	// UpdateReceived fires for each inbound UPDATE.
	UpdateReceived(*Session, *wire.Update)
	// Closed fires exactly once when the session ends; err is nil on
	// clean shutdown.
	Closed(*Session, error)
}

// BatchHandler is an optional Handler extension: when the handler
// implements it and the transport reports readable bytes (a Buffered()
// int method, e.g. bufconn), the reader collects consecutive UPDATEs
// that are already in flight and delivers them as one slice instead of
// one call per message — the entry point of the batched ingest path.
// Per-message accounting (metrics, hold-timer resets, RFC 7606 error
// actions) is unchanged. The slice is reused by the reader after the
// call returns; implementations must not retain it (the *Updates
// inside are fresh per decode and may be kept).
type BatchHandler interface {
	UpdateBatchReceived(*Session, []*wire.Update)
}

// maxReadBatch bounds one batched delivery. At the 4096-byte message
// cap this also bounds the bytes a batch can pin at ~512KB, under any
// transport frame limit in the tree.
const maxReadBatch = 128

// HandlerFuncs adapts plain functions to Handler; nil fields are no-ops.
type HandlerFuncs struct {
	OnEstablished func(*Session)
	OnUpdate      func(*Session, *wire.Update)
	OnClosed      func(*Session, error)
}

// Established implements Handler.
func (h HandlerFuncs) Established(s *Session) {
	if h.OnEstablished != nil {
		h.OnEstablished(s)
	}
}

// UpdateReceived implements Handler.
func (h HandlerFuncs) UpdateReceived(s *Session, u *wire.Update) {
	if h.OnUpdate != nil {
		h.OnUpdate(s, u)
	}
}

// Closed implements Handler.
func (h HandlerFuncs) Closed(s *Session, err error) {
	if h.OnClosed != nil {
		h.OnClosed(s, err)
	}
}

// Session is one BGP session over an established transport.
type Session struct {
	cfg     Config
	conn    net.Conn
	handler Handler
	clk     clock.Clock

	mu        sync.Mutex
	state     State
	peerAS    uint32
	peerID    netip.Addr
	holdTime  time.Duration
	opts      wire.Options
	closeErr  error
	closed    bool
	sendQ     chan sendItem
	done      chan struct{}
	holdTimer clock.Timer
	kaTimer   clock.Timer
	// sent counts UPDATEs accepted by Send — the batching pipeline's
	// measure of how many messages actually hit the wire. A standalone
	// telemetry counter: lock-free, readable without s.mu.
	sent telemetry.Counter
}

// New wraps conn in a session. Call Run (usually in a goroutine) to
// drive the handshake and message loop.
func New(conn net.Conn, cfg Config, h Handler) *Session {
	if cfg.HoldTime == 0 {
		cfg.HoldTime = DefaultHoldTime
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System
	}
	if h == nil {
		h = HandlerFuncs{}
	}
	cfg.Metrics.sessionState(-1, StateOpenSent)
	return &Session{
		cfg:     cfg,
		conn:    conn,
		handler: h,
		clk:     clk,
		state:   StateOpenSent,
		sendQ:   make(chan sendItem, 256),
		done:    make(chan struct{}),
	}
}

// State returns the current FSM state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Established reports whether the session is currently Established.
func (s *Session) Established() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == StateEstablished && !s.closed
}

// SentUpdates reports how many UPDATE messages Send has accepted over
// the session's lifetime.
func (s *Session) SentUpdates() uint64 { return s.sent.Value() }

// PeerAS returns the neighbor's (4-octet) ASN once OPEN has been
// received, else 0.
func (s *Session) PeerAS() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerAS
}

// PeerID returns the neighbor's BGP identifier.
func (s *Session) PeerID() netip.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerID
}

// Options returns the negotiated codec options (valid once Established).
func (s *Session) Options() wire.Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts
}

// LocalAS returns our configured ASN.
func (s *Session) LocalAS() uint32 { return s.cfg.LocalAS }

// Describe returns the configured session label.
func (s *Session) Describe() string { return s.cfg.Describe }

// Done is closed when the session has fully terminated.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the terminal error (nil before close or on clean close).
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeErr
}

// Run drives the session to completion: handshake, then the message
// loop until error or Close. It returns the terminal error.
func (s *Session) Run() error {
	// The handshake reads have no deadline of their own, so a silent peer
	// (or a partitioned transport) would otherwise pin this goroutine
	// forever and stall any supervisor redialing through it.
	hsTimer := s.clk.AfterFunc(s.cfg.HoldTime, func() {
		s.mu.Lock()
		pending := s.state != StateEstablished && !s.closed
		s.mu.Unlock()
		if pending {
			s.abort(errors.New("bgp: handshake timed out"))
		}
	})
	err := s.handshake()
	hsTimer.Stop()
	if err != nil {
		s.shutdown(err)
		return err
	}
	go s.writer()
	s.handler.Established(s)
	err = s.reader()
	s.shutdown(err)
	return s.Err()
}

// open builds our OPEN message.
func (s *Session) open() *wire.Open {
	as2 := uint16(s.cfg.LocalAS)
	if s.cfg.LocalAS > 0xffff {
		as2 = wire.ASTrans
	}
	return &wire.Open{
		AS:       as2,
		HoldTime: uint16(s.cfg.HoldTime / time.Second),
		BGPID:    s.cfg.LocalID,
		Caps:     wire.StandardCaps(s.cfg.LocalAS, s.cfg.AddPath),
	}
}

func (s *Session) handshake() error {
	// OpenSent: send our OPEN, await theirs.
	if err := s.writeMsg(s.open(), wire.DefaultOptions); err != nil {
		return fmt.Errorf("bgp: send OPEN: %w", err)
	}
	msg, err := wire.ReadMessage(s.conn, wire.DefaultOptions)
	if err != nil {
		s.sendNotifForErr(err)
		return fmt.Errorf("bgp: await OPEN: %w", err)
	}
	s.cfg.Metrics.msgIn(msg)
	po, ok := msg.(*wire.Open)
	if !ok {
		notif := wire.NotifError(wire.CodeFSMError, 0, nil)
		s.writeMsg(notif.Notification(), wire.DefaultOptions)
		return fmt.Errorf("bgp: expected OPEN, got %v", msg.Type())
	}
	peerAS := po.FourOctetAS()
	if s.cfg.PeerAS != 0 && peerAS != s.cfg.PeerAS {
		notif := wire.NotifError(wire.CodeOpenMessageError, wire.SubBadPeerAS, nil)
		s.writeMsg(notif.Notification(), wire.DefaultOptions)
		return fmt.Errorf("bgp: peer AS %d, want %d", peerAS, s.cfg.PeerAS)
	}
	hold := s.cfg.HoldTime
	if ph := time.Duration(po.HoldTime) * time.Second; ph < hold {
		hold = ph
	}
	addPath := s.cfg.AddPath && po.HasAddPath()

	s.mu.Lock()
	s.state = StateOpenConfirm
	s.peerAS = peerAS
	s.peerID = po.BGPID
	s.holdTime = hold
	s.opts = wire.Options{AddPath: addPath, AS4: true}
	s.mu.Unlock()
	s.cfg.Metrics.sessionState(StateOpenSent, StateOpenConfirm)

	// OpenConfirm: send KEEPALIVE, await theirs.
	if err := s.writeMsg(&wire.Keepalive{}, wire.DefaultOptions); err != nil {
		return fmt.Errorf("bgp: send KEEPALIVE: %w", err)
	}
	msg, err = wire.ReadMessage(s.conn, wire.DefaultOptions)
	if err != nil {
		return fmt.Errorf("bgp: await KEEPALIVE: %w", err)
	}
	s.cfg.Metrics.msgIn(msg)
	switch m := msg.(type) {
	case *wire.Keepalive:
	case *wire.Notification:
		return &PeerClosedError{Notif: m}
	default:
		return fmt.Errorf("bgp: expected KEEPALIVE, got %v", msg.Type())
	}

	s.mu.Lock()
	s.state = StateEstablished
	s.mu.Unlock()
	s.cfg.Metrics.sessionState(StateOpenConfirm, StateEstablished)
	s.startTimers()
	return nil
}

// startTimers arms the hold timer and keepalive generator.
func (s *Session) startTimers() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.holdTime <= 0 {
		return // hold time 0: no keepalives (RFC 4271 §4.2)
	}
	s.holdTimer = s.clk.AfterFunc(s.holdTime, func() {
		ne := wire.NotifError(wire.CodeHoldTimerExpired, 0, nil)
		s.enqueue(ne.Notification())
		s.abort(errors.New("bgp: hold timer expired"))
	})
	ka := s.holdTime / 3
	var tick func()
	tick = func() {
		s.enqueue(&wire.Keepalive{})
		s.mu.Lock()
		if !s.closed {
			s.kaTimer = s.clk.AfterFunc(ka, tick)
		}
		s.mu.Unlock()
	}
	s.kaTimer = s.clk.AfterFunc(ka, tick)
}

// resetHold re-arms the hold timer after any inbound message.
func (s *Session) resetHold() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.holdTimer != nil && !s.closed {
		s.holdTimer.Reset(s.holdTime)
	}
}

// sendItem is one entry on the send queue: either a message to encode,
// or a pre-encoded frame of `updates` UPDATE messages to write as-is.
type sendItem struct {
	m       wire.Message
	frame   *bufpool.Frame
	updates int
}

// Send queues an UPDATE for transmission. It returns an error if the
// session is not Established.
func (s *Session) Send(u *wire.Update) error {
	s.mu.Lock()
	if s.state != StateEstablished || s.closed {
		st := s.state
		s.mu.Unlock()
		return fmt.Errorf("bgp: session %s not established (state %v)", s.cfg.Describe, st)
	}
	s.mu.Unlock()
	s.sent.Inc()
	s.enqueue(u)
	return nil
}

// SendEncoded queues a pre-encoded run of UPDATE messages — the shared
// fan-out frames every in-sync client references — for transmission in
// one write. The frame must already be encoded under this session's
// negotiated Options (the caller checks; see Options) and must carry a
// reference for this session: the session releases it after the write,
// or immediately if the session is not Established or is shutting
// down. updates is the UPDATE count inside the frame, counted on the
// same instruments per-message sends use.
func (s *Session) SendEncoded(f *bufpool.Frame, updates int) error {
	s.mu.Lock()
	if s.state != StateEstablished || s.closed {
		st := s.state
		s.mu.Unlock()
		f.Release()
		return fmt.Errorf("bgp: session %s not established (state %v)", s.cfg.Describe, st)
	}
	s.mu.Unlock()
	s.sent.Add(uint64(updates))
	select {
	case s.sendQ <- sendItem{frame: f, updates: updates}:
		// The writer drains the queue once on its way out; a frame that
		// slipped in behind that drain is released here, so a reference
		// handed to a session is always given back.
		select {
		case <-s.done:
			s.releaseQueuedFrames()
		default:
		}
	case <-s.done:
		f.Release()
	}
	return nil
}

// enqueue places a message on the send queue, dropping it if the session
// is closing (the writer drains until close).
func (s *Session) enqueue(m wire.Message) {
	select {
	case s.sendQ <- sendItem{m: m}:
	case <-s.done:
	}
}

func (s *Session) writer() {
	for {
		select {
		case it := <-s.sendQ:
			if it.frame != nil {
				if err := s.writeFrame(it); err != nil {
					s.abort(fmt.Errorf("bgp: write: %w", err))
					s.releaseQueuedFrames()
					return
				}
				continue
			}
			s.mu.Lock()
			opts := s.opts
			s.mu.Unlock()
			if err := s.writeMsg(it.m, opts); err != nil {
				s.abort(fmt.Errorf("bgp: write: %w", err))
				s.releaseQueuedFrames()
				return
			}
			if n, ok := it.m.(*wire.Notification); ok {
				s.abort(fmt.Errorf("bgp: sent %v", n))
				s.releaseQueuedFrames()
				return
			}
		case <-s.done:
			s.releaseQueuedFrames()
			return
		}
	}
}

// writeFrame writes one pre-encoded frame and releases the session's
// reference to it.
func (s *Session) writeFrame(it sendItem) error {
	_, err := s.conn.Write(it.frame.Bytes())
	if err == nil {
		s.cfg.Metrics.msgOutUpdates(it.updates)
	}
	it.frame.Release()
	return err
}

// releaseQueuedFrames drops the references held by frames still queued
// when the writer exits, so their buffers can be recycled. SendEncoded
// calls it again for a frame enqueued behind the writer's own drain.
func (s *Session) releaseQueuedFrames() {
	for {
		select {
		case it := <-s.sendQ:
			if it.frame != nil {
				it.frame.Release()
			}
		default:
			return
		}
	}
}

func (s *Session) writeMsg(m wire.Message, opts wire.Options) error {
	// Encode into a pooled buffer: every transport below (bufconn,
	// tunnel streams, faultconn) either copies the bytes or completes the
	// write before returning, so the buffer is reusable as soon as
	// conn.Write returns.
	buf := bufpool.Get(0)
	b, err := wire.AppendMessage(buf[:0], m, opts)
	if err != nil {
		bufpool.Put(buf)
		return err
	}
	if _, err = s.conn.Write(b); err == nil {
		s.cfg.Metrics.msgOut(m)
	}
	bufpool.Put(b)
	return err
}

func (s *Session) reader() error {
	// Batched delivery engages when both ends support it: the handler
	// accepts slices and the transport can say whether more bytes are
	// already readable, so collecting never blocks waiting for traffic
	// that may not come. batch is reused across deliveries.
	bh, _ := s.handler.(BatchHandler)
	bc, _ := s.conn.(interface{ Buffered() int })
	batching := bh != nil && bc != nil
	var batch []*wire.Update
	flush := func() {
		if len(batch) > 0 {
			// One hold-timer reset covers the whole batch: its messages
			// all arrived before this delivery, and collection never
			// blocks (it only continues while bytes are already
			// buffered), so the reset is at most a drain-loop late.
			s.resetHold()
			bh.UpdateBatchReceived(s, batch)
			batch = batch[:0]
		}
	}
	for {
		s.mu.Lock()
		opts := s.opts
		closed := s.closed
		s.mu.Unlock()
		if closed {
			flush()
			return nil
		}
		msg, err := wire.ReadMessage(s.conn, opts)
		if err != nil {
			flush()
			if s.isClosed() {
				return nil
			}
			// Only session-reset errors reach this point: the codec
			// absorbs treat-as-withdraw and attribute-discard into the
			// decoded Update (RFC 7606).
			var we *wire.Error
			if errors.As(err, &we) {
				s.cfg.Metrics.errorAction("session_reset")
			}
			s.sendNotifForErr(err)
			return fmt.Errorf("bgp: read: %w", err)
		}
		s.cfg.Metrics.msgIn(msg)
		switch m := msg.(type) {
		case *wire.Update:
			if m.Malformed != nil {
				s.cfg.Metrics.errorAction("treat_as_withdraw")
			}
			if len(m.Discarded) > 0 {
				s.cfg.Metrics.errorAction("attribute_discard")
			}
			if !batching {
				s.resetHold()
				s.handler.UpdateReceived(s, m)
				continue
			}
			batch = append(batch, m)
			if len(batch) < maxReadBatch && bc.Buffered() > 0 {
				continue // more already in flight: keep collecting
			}
			flush()
		case *wire.Keepalive:
			// Flush so a keepalive landing mid-collection never strands
			// the batch behind the next blocking read.
			s.resetHold()
			flush()
		case *wire.Notification:
			flush()
			return &PeerClosedError{Notif: m}
		case *wire.RouteRefresh:
			// Surfaced as a zero-route update so owners can re-export.
			// Refresh distinguishes this from an End-of-RIB marker, which
			// is also an empty UPDATE. Flushed behind any collected batch
			// to keep arrival order.
			s.resetHold()
			flush()
			if batching {
				bh.UpdateBatchReceived(s, []*wire.Update{{Refresh: true}})
			} else {
				s.handler.UpdateReceived(s, &wire.Update{Refresh: true})
			}
		case *wire.Open:
			flush()
			ne := wire.NotifError(wire.CodeFSMError, 0, nil)
			s.writeMsg(ne.Notification(), opts)
			return errors.New("bgp: OPEN received in Established")
		}
	}
}

// sendNotifForErr transmits the NOTIFICATION matching a codec error.
func (s *Session) sendNotifForErr(err error) {
	var ne *wire.Error
	if errors.As(err, &ne) {
		s.writeMsg(ne.Notification(), wire.DefaultOptions)
	}
}

// Close performs an administrative shutdown (Cease) and tears down.
func (s *Session) Close() error {
	return s.CloseCease(wire.SubAdminShutdown)
}

// CloseCease performs an administrative shutdown with a specific Cease
// subcode (RFC 4486) — e.g. max-prefixes-reached when tearing down a
// peer that breached its quota — and tears the session down cleanly.
func (s *Session) CloseCease(subcode uint8) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	est := s.state == StateEstablished
	s.mu.Unlock()
	if est {
		ne := wire.NotifError(wire.CodeCease, subcode, nil)
		s.writeMsg(ne.Notification(), wire.DefaultOptions)
	}
	s.shutdown(nil)
	return nil
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// abort terminates with err from a helper goroutine.
func (s *Session) abort(err error) { s.shutdown(err) }

// shutdown closes the session exactly once.
func (s *Session) shutdown(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	last := s.state
	s.state = StateClosed
	s.closeErr = err
	if s.holdTimer != nil {
		s.holdTimer.Stop()
	}
	if s.kaTimer != nil {
		s.kaTimer.Stop()
	}
	close(s.done)
	s.mu.Unlock()
	s.cfg.Metrics.sessionClosed(last)
	s.conn.Close()
	s.handler.Closed(s, err)
}
