package bgp

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"peering/internal/clock"
	"peering/internal/telemetry"
	"peering/internal/wire"
)

// Backoff parameterizes the supervisor's redial schedule: exponential
// growth from Initial by Factor per consecutive failure, capped at Max,
// with optional multiplicative jitter drawn from a seeded PRNG so the
// schedule is reproducible under a virtual clock.
type Backoff struct {
	// Initial is the delay before the first redial. Zero means 1s.
	Initial time.Duration
	// Max caps the delay. Zero means 2m.
	Max time.Duration
	// Factor is the per-failure growth multiplier. Zero means 2.
	Factor float64
	// Jitter spreads each delay uniformly over [1-Jitter, 1+Jitter].
	// Zero disables jitter entirely.
	Jitter float64
	// Seed seeds the jitter PRNG; a fixed seed yields a deterministic
	// schedule. Only consulted when Jitter > 0.
	Seed int64
}

func (b Backoff) withDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = time.Second
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Minute
	}
	if b.Factor <= 1 {
		b.Factor = 2
	}
	return b
}

// Delay returns the redial delay after the attempt-th consecutive
// failure (attempt >= 1). rng supplies jitter and may be nil.
func (b Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	b = b.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(b.Initial) * math.Pow(b.Factor, float64(attempt-1))
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 && rng != nil {
		d *= 1 + b.Jitter*(2*rng.Float64()-1)
		if d < 0 {
			d = 0
		}
		if d > float64(b.Max) {
			d = float64(b.Max)
		}
	}
	return time.Duration(d)
}

// SupervisorConfig parameterizes a Supervisor.
type SupervisorConfig struct {
	// Session configures each session the supervisor creates. Its Clock
	// also drives the backoff timers.
	Session Config
	// Dial produces a fresh transport for each (re)connection attempt.
	Dial func() (net.Conn, error)
	// Backoff shapes the redial schedule.
	Backoff Backoff
	// MaxAttempts bounds consecutive redials before the supervisor gives
	// up. Zero means retry forever.
	MaxAttempts int
	// OnAttempt fires before redial n (n >= 1 counts consecutive
	// failures; the initial dial is not reported).
	OnAttempt func(n int)
	// OnRecover fires when a session re-establishes after n failures.
	OnRecover func(n int)
}

// SupervisorStats is a snapshot of supervisor counters.
type SupervisorStats struct {
	// Attempts counts redials (not the initial dial).
	Attempts uint64
	// Recoveries counts sessions re-established after at least one
	// failure.
	Recoveries uint64
	// ConsecutiveFailures counts failures since the last establishment.
	ConsecutiveFailures int
}

// Supervisor owns a session's lifecycle: it dials, runs the session, and
// on failure redials with exponential backoff until stopped, the peer
// ceases administratively, or MaxAttempts is exhausted. All waiting goes
// through the injected clock — a supervisor never sleeps wall-clock time.
type Supervisor struct {
	cfg SupervisorConfig
	h   Handler
	clk clock.Clock
	rng *rand.Rand

	mu          sync.Mutex
	sess        *Session
	timer       clock.Timer
	started     bool
	stopped     bool
	consecutive int

	// attempts/recoveries are standalone telemetry counters: readable
	// lock-free by Stats, mirrored onto the shared Metrics (if any) so
	// the aggregate surfaces on /metrics.
	attempts   telemetry.Counter
	recoveries telemetry.Counter

	doneOnce sync.Once
	done     chan struct{}
}

// NewSupervisor builds a supervisor; call Start to begin dialing. h
// receives the events of every session the supervisor creates.
func NewSupervisor(cfg SupervisorConfig, h Handler) *Supervisor {
	if cfg.Dial == nil {
		panic("bgp: SupervisorConfig.Dial is required")
	}
	cfg.Backoff = cfg.Backoff.withDefaults()
	clk := cfg.Session.Clock
	if clk == nil {
		clk = clock.System
	}
	if h == nil {
		h = HandlerFuncs{}
	}
	sv := &Supervisor{cfg: cfg, h: h, clk: clk, done: make(chan struct{})}
	if cfg.Backoff.Jitter > 0 {
		sv.rng = rand.New(rand.NewSource(cfg.Backoff.Seed))
	}
	return sv
}

// Start begins the first connection attempt. It is idempotent.
func (sv *Supervisor) Start() {
	sv.mu.Lock()
	if sv.started || sv.stopped {
		sv.mu.Unlock()
		return
	}
	sv.started = true
	sv.mu.Unlock()
	sv.dial()
}

// Stop administratively shuts the supervisor down: the current session
// (if any) is closed with Cease and no redial is scheduled.
func (sv *Supervisor) Stop() {
	sv.mu.Lock()
	if sv.stopped {
		sv.mu.Unlock()
		return
	}
	sv.stopped = true
	t := sv.timer
	sv.timer = nil
	sess := sv.sess
	sv.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	if sess != nil {
		sess.Close() // Closed → sessionEnded → finish
	} else {
		sv.finish()
	}
}

// Drain stops the redial machinery without touching a live session.
// For callers that know the transport underneath has already died: the
// session's reader must be left to empty its receive buffer — a goodbye
// (Cease) the peer sent just before the transport went down is then
// still honored — after which the session ends on the transport error
// by itself and the supervisor finishes.
func (sv *Supervisor) Drain() {
	sv.mu.Lock()
	if sv.stopped {
		sv.mu.Unlock()
		return
	}
	sv.stopped = true
	t := sv.timer
	sv.timer = nil
	sess := sv.sess
	sv.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	if sess == nil {
		sv.finish()
	}
}

// Session returns the current session, which may still be handshaking.
// Nil while disconnected or backing off.
func (sv *Supervisor) Session() *Session {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.sess
}

// Done is closed when the supervisor has terminated for good.
func (sv *Supervisor) Done() <-chan struct{} { return sv.done }

// Stats snapshots the supervisor's counters.
func (sv *Supervisor) Stats() SupervisorStats {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return SupervisorStats{
		Attempts:            sv.attempts.Value(),
		Recoveries:          sv.recoveries.Value(),
		ConsecutiveFailures: sv.consecutive,
	}
}

func (sv *Supervisor) dial() {
	sv.mu.Lock()
	if sv.stopped {
		sv.mu.Unlock()
		return
	}
	dialFn := sv.cfg.Dial
	sv.mu.Unlock()

	conn, err := dialFn()
	if err != nil {
		sv.sessionEnded(fmt.Errorf("bgp: supervisor dial: %w", err))
		return
	}
	sv.mu.Lock()
	if sv.stopped {
		sv.mu.Unlock()
		conn.Close()
		sv.finish()
		return
	}
	sess := New(conn, sv.cfg.Session, supHandler{sv})
	sv.sess = sess
	sv.mu.Unlock()
	go sess.Run()
}

// sessionEnded decides what follows a failure or shutdown: finish, or
// schedule a redial on the clock.
func (sv *Supervisor) sessionEnded(err error) {
	sv.mu.Lock()
	sv.sess = nil
	if sv.stopped {
		sv.mu.Unlock()
		sv.finish()
		return
	}
	if err == nil || IsPeerCease(err) {
		// Clean shutdown on either end: supervision is over.
		sv.stopped = true
		sv.mu.Unlock()
		sv.finish()
		return
	}
	sv.consecutive++
	n := sv.consecutive
	if sv.cfg.MaxAttempts > 0 && n > sv.cfg.MaxAttempts {
		sv.stopped = true
		sv.mu.Unlock()
		sv.finish()
		return
	}
	d := sv.cfg.Backoff.Delay(n, sv.rng)
	onAttempt := sv.cfg.OnAttempt
	sv.timer = sv.clk.AfterFunc(d, func() {
		sv.mu.Lock()
		if sv.stopped {
			sv.mu.Unlock()
			return
		}
		sv.mu.Unlock()
		sv.attempts.Inc()
		sv.cfg.Session.Metrics.reconnect()
		if onAttempt != nil {
			onAttempt(n)
		}
		sv.dial()
	})
	sv.mu.Unlock()
}

func (sv *Supervisor) finish() {
	sv.doneOnce.Do(func() { close(sv.done) })
}

// supHandler interposes the supervisor between the session and the
// user's handler so lifecycle transitions are observed first-hand.
type supHandler struct{ sv *Supervisor }

func (w supHandler) Established(s *Session) {
	sv := w.sv
	sv.mu.Lock()
	failures := sv.consecutive
	sv.consecutive = 0
	onRecover := sv.cfg.OnRecover
	sv.mu.Unlock()
	if failures > 0 {
		sv.recoveries.Inc()
		sv.cfg.Session.Metrics.recovery()
		if onRecover != nil {
			onRecover(failures)
		}
	}
	sv.h.Established(s)
}

func (w supHandler) UpdateReceived(s *Session, u *wire.Update) {
	w.sv.h.UpdateReceived(s, u)
}

// UpdateBatchReceived implements BatchHandler, so a supervised session
// batches whenever its transport can: the batch goes to the user's
// handler whole if it takes batches, one UPDATE at a time otherwise.
func (w supHandler) UpdateBatchReceived(s *Session, upds []*wire.Update) {
	if bh, ok := w.sv.h.(BatchHandler); ok {
		bh.UpdateBatchReceived(s, upds)
		return
	}
	for _, u := range upds {
		w.sv.h.UpdateReceived(s, u)
	}
}

func (w supHandler) Closed(s *Session, err error) {
	w.sv.h.Closed(s, err)
	w.sv.sessionEnded(err)
}
