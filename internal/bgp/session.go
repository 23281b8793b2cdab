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
// A session's one goroutine, Run's, reads. Nothing queues on the write
// side: whoever has a message — Send, SendEncoded, SendRuns, the
// keepalive tick, a NOTIFICATION on the way out — writes it to the
// transport, whole, under one write mutex, so Send blocks while the
// transport does and what was handed to it is the caller's again when
// it returns.
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
	"sync/atomic"
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
	// Intern, when non-nil, makes the reader decode each distinct
	// attribute block once per session (wire.AttrCache) and deliver
	// every Update.Attrs as the canonical pointer in this table, shared
	// and frozen. Nil decodes every UPDATE afresh into attributes the
	// handler owns.
	Intern *wire.InternTable
}

// Handler receives session events. Calls are serialized per session.
type Handler interface {
	// Established fires when the session reaches Established, on Run's
	// goroutine before its first read: two peers that each send more
	// from here than the transport buffers stall each other.
	Established(*Session)
	// UpdateReceived fires for each inbound UPDATE.
	UpdateReceived(*Session, *wire.Update)
	// Closed fires exactly once when the session ends; err is nil on
	// clean shutdown. It never runs on a goroutine that is inside Send,
	// SendEncoded or SendRuns, so it may take locks that senders hold.
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
	bw      buffersWriter // conn, when it takes a vectored write whole
	handler Handler
	clk     clock.Clock
	attrs   *wire.AttrCache // the reader's; nil without Config.Intern

	mu        sync.Mutex
	state     State
	peerAS    uint32
	peerID    netip.Addr
	holdTime  time.Duration
	opts      wire.Options
	closeErr  error
	closed    bool
	done      chan struct{}
	holdTimer clock.Timer
	kaTimer   clock.Timer
	// sent counts UPDATEs accepted by Send — the batching pipeline's
	// measure of how many messages actually hit the wire. A standalone
	// telemetry counter: lock-free, readable without s.mu.
	sent telemetry.Counter
	// runHint is the size of SendRuns' last write, the buffer the next
	// one asks the pool for.
	runHint atomic.Int64

	// wmu makes each write to conn whole messages: a leaf lock, held
	// only across the conn's write. notified, under it, is set by a
	// NOTIFICATION; nothing follows one. vec, under it, is
	// SendEncoded's reused copy of its caller's buffers.
	wmu      sync.Mutex
	notified bool
	vec      net.Buffers
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
	bw, _ := conn.(buffersWriter)
	s := &Session{
		cfg:     cfg,
		conn:    conn,
		bw:      bw,
		handler: h,
		clk:     clk,
		state:   StateOpenSent,
		done:    make(chan struct{}),
	}
	if cfg.Intern != nil {
		s.attrs = wire.NewAttrCache(cfg.Intern)
	}
	return s
}

// State returns the current FSM state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Established reports whether the session is currently Established.
func (s *Session) Established() bool { _, ok := s.established(); return ok }

// established is Established along with the negotiated codec options.
func (s *Session) established() (wire.Options, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts, s.state == StateEstablished && !s.closed
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
		if !s.Established() {
			s.shutdown(errors.New("bgp: handshake timed out"))
		}
	})
	err := s.handshake()
	hsTimer.Stop()
	if err != nil {
		s.shutdown(err)
		return err
	}
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

// startTimers arms the hold timer and keepalive generator. Neither
// callback writes to the transport: a virtual clock runs callbacks
// inside Advance, and a write that waits on that clock (faultconn's
// latency) would stop time from inside one.
func (s *Session) startTimers() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.holdTime <= 0 {
		return // hold time 0: no keepalives (RFC 4271 §4.2)
	}
	// The write lock is tried here, in the callback, so that a keepalive
	// tick due at the same instant queues behind the NOTIFICATION.
	s.holdTimer = s.clk.AfterFunc(s.holdTime, func() { go s.holdExpired(s.wmu.TryLock()) })
	ka := s.holdTime / 3
	var tick func()
	tick = func() {
		go func() { s.wrote(s.writeMsg(&wire.Keepalive{}, wire.DefaultOptions)) }()
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

// holdExpired ends a session whose peer went silent, the NOTIFICATION
// of RFC 4271 §6.5 on the wire before the transport closes. That is a
// courtesy and was only tried for (locked): a sender wedged in
// conn.Write holds wmu, and closing the transport is what frees it. If
// the courtesy is what wedges, the re-armed timer finds wmu taken.
func (s *Session) holdExpired(locked bool) {
	if locked {
		s.resetHold()
		ne := wire.NotifError(wire.CodeHoldTimerExpired, 0, nil)
		s.writeLocked(ne.Notification(), wire.DefaultOptions)
		s.wmu.Unlock()
	}
	s.shutdown(errors.New("bgp: hold timer expired"))
}

// errDown is what a send reports when the session is not Established.
func (s *Session) errDown() error {
	return fmt.Errorf("bgp: session %s not established (state %v)", s.cfg.Describe, s.State())
}

// Send writes an UPDATE to the transport, blocking while the transport
// does; u is the caller's again when it returns. It returns an error if
// the session is not Established, u does not encode under the
// negotiated options, or the write fails. Only a failed write ends the
// session: an UPDATE that does not encode is refused before any of it
// reaches the transport, and the session stays up.
func (s *Session) Send(u *wire.Update) error {
	opts, ok := s.established()
	if !ok {
		return s.errDown()
	}
	err := s.writeMsg(u, opts)
	if _, refused := err.(encodeError); !refused {
		s.sent.Inc()
	}
	return s.wrote(err)
}

// SendEncoded writes pre-encoded UPDATE messages — a fan-out flusher's
// whole drain for this session, shared bytes every in-sync client
// references, or an announcement's one run — on Send's terms, as one
// transport write: a conn with a WriteBuffers method (a tunnel stream,
// bufconn, faultconn) takes bufs in one call and copies none of it,
// any other gets net.Buffers.WriteTo (writev on a *net.TCPConn). Each
// buffer holds whole messages encoded under this session's negotiated
// Options (the caller checks); bufs and the bytes are only read, and
// are the caller's again when SendEncoded returns. updates is the
// UPDATE count across them, counted on the instruments per-message
// sends use.
func (s *Session) SendEncoded(bufs net.Buffers, updates int) error {
	if !s.Established() {
		return s.errDown()
	}
	s.sent.Add(uint64(updates))
	s.wmu.Lock()
	err := s.putBuffers(bufs)
	s.wmu.Unlock()
	if err == nil {
		s.cfg.Metrics.msgOutUpdates(updates)
	}
	return s.wrote(err)
}

// SendRuns is the one way out toward a peer for runs of routes: each
// run is withdrawals plus announcements that share one attribute set,
// a wire.Update's fields. The runs are encoded by wire.AppendRun under
// the negotiated options, back to back into one pooled buffer that is
// written on SendEncoded's terms, and cut into a new write between runs
// once it reaches bufpool's largest class (64 KiB). sent, reused,
// comes back with one entry per run: whether it went out. A run that
// does not encode is left out alone and the rest go. A failed write
// takes its runs and every later one with it, and its error is
// returned. The last write's size sizes the next call's buffer: every
// sender of a session shares the hint.
func (s *Session) SendRuns(runs []wire.Update, sent []bool) ([]bool, error) {
	sent = append(sent[:0], make([]bool, len(runs))...)
	opts, ok := s.established()
	if !ok {
		return sent, s.errDown()
	}
	buf, from, msgs := bufpool.Get(int(s.runHint.Load()))[:0], 0, 0
	var err error
	for i := range runs {
		r := &runs[i]
		if out, n, e := wire.AppendRun(buf, r.Withdrawn, r.Attrs, r.Reach, opts); e == nil {
			buf, msgs, sent[i] = out, msgs+n, true
		}
		if len(buf) < 64<<10 && i < len(runs)-1 {
			continue
		}
		s.runHint.Store(int64(len(buf)))
		if msgs > 0 {
			if err = s.SendEncoded(net.Buffers{buf}, msgs); err != nil {
				clear(sent[from:])
				break
			}
		}
		buf, from, msgs = buf[:0], i+1, 0
	}
	bufpool.Put(buf)
	return sent, err
}

// putBuffers is put for SendEncoded's vector, which it copies into the
// session's own (under wmu) first: what goes to the conn escapes, and
// a caller's one-buffer literal should not have to.
func (s *Session) putBuffers(bufs net.Buffers) error {
	if s.notified {
		return errClosing
	}
	s.vec = append(s.vec[:0], bufs...)
	var err error
	if s.bw != nil {
		_, err = s.bw.WriteBuffers(s.vec)
	} else {
		v := s.vec // WriteTo consumes its receiver
		_, err = v.WriteTo(s.conn)
	}
	clear(s.vec) // the bytes are the caller's: do not pin them
	return err
}

// buffersWriter is a transport that takes a vectored write as one call:
// a tunnel stream, bufconn, faultconn.
type buffersWriter interface {
	WriteBuffers(net.Buffers) (int64, error)
}

// errClosing refuses a write behind a NOTIFICATION. Whoever wrote that
// is closing the session, for a reason of its own.
var errClosing = errors.New("bgp: session closing")

// encodeError is a message that did not encode: nothing was written.
type encodeError struct{ error }

// wrote passes a sender's write error through. A failed write ends the
// session, but never on the sender's goroutine: senders hold locks that
// Closed handlers take.
func (s *Session) wrote(err error) error {
	if _, refused := err.(encodeError); err != nil && err != errClosing && !refused {
		go s.shutdown(fmt.Errorf("bgp: write: %w", err))
	}
	return err
}

// put writes b, whole messages, to the transport under wmu (the caller
// holds it), so nothing lands inside another message, and nothing lands
// behind a NOTIFICATION (last). putBuffers is its vectored twin.
func (s *Session) put(b []byte, last bool) error {
	if s.notified {
		return errClosing
	}
	s.notified = last
	_, err := s.conn.Write(b)
	return err
}

// writeMsg encodes m and writes it, waiting its turn on the transport.
func (s *Session) writeMsg(m wire.Message, opts wire.Options) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.writeLocked(m, opts)
}

// writeLocked is writeMsg for a caller that holds wmu. It encodes into
// a pooled buffer: every transport (bufconn, tunnel streams, faultconn)
// copies the bytes or completes the write before conn.Write returns.
func (s *Session) writeLocked(m wire.Message, opts wire.Options) error {
	buf := bufpool.Get(0)
	b, err := wire.AppendMessage(buf[:0], m, opts)
	if err != nil {
		bufpool.Put(buf)
		return encodeError{err}
	}
	_, last := m.(*wire.Notification)
	if err = s.put(b, last); err == nil {
		s.cfg.Metrics.msgOut(m)
	}
	bufpool.Put(b)
	return err
}

func (s *Session) reader() error {
	// Batched delivery engages when both ends support it: the handler
	// accepts slices and the transport can say whether more bytes are
	// already readable, so collecting never blocks waiting for traffic
	// that may not come. batch is reused across deliveries and cleared
	// after each, so that an idle session pins nothing it decoded.
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
			clear(batch)
			batch = batch[:0]
		}
	}
	for {
		opts, ok := s.established()
		if !ok {
			flush()
			return nil
		}
		msg, src, err := s.attrs.ReadMessage(s.conn, opts)
		if err != nil {
			flush()
			if s.State() == StateClosed {
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
			s.cfg.Metrics.attrDecode(src)
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
// The Cease waits its turn on the transport rather than trying for it:
// skipped, an administrative stop would be redialed as a failure.
func (s *Session) CloseCease(subcode uint8) error {
	if s.Established() {
		ne := wire.NotifError(wire.CodeCease, subcode, nil)
		s.writeMsg(ne.Notification(), wire.DefaultOptions)
	}
	s.shutdown(nil)
	return nil
}

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
