// Package dampen implements RFC 2439 route-flap dampening. PEERING
// servers apply it to client announcements so that a misbehaving
// experiment cannot destabilize routing for the rest of the Internet
// (§3 "Enforcing safety").
//
// A Damper keeps the records of one peering: RFC 2439 keeps its figure
// of merit per peering, so one announcement steered to three upstreams
// is one flap in each of three dampers, not three flaps of one route.
// Each (prefix, source) key accumulates a penalty on every flap
// (withdrawal or attribute change). The penalty decays exponentially
// with a configurable half-life. When it crosses the suppress threshold
// the route is suppressed — not propagated — until decay brings it back
// under the reuse threshold.
//
// Dampers are observable through an optional Metrics instance, which
// any number of them may share (NewMetrics, Instrument): penalty
// applications by kind, suppress/reuse threshold crossings, and a
// scrape-time gauge of tracked records.
package dampen

import (
	"math"
	"net/netip"
	"time"

	"peering/internal/clock"
)

// Config holds the dampening parameters. The defaults mirror the
// classic Cisco/RFC 2439 values.
type Config struct {
	// Penalty added per flap.
	FlapPenalty float64
	// WithdrawPenalty added on explicit withdrawals (usually equal to
	// FlapPenalty).
	WithdrawPenalty float64
	// HalfLife of the exponential decay.
	HalfLife time.Duration
	// SuppressThreshold above which the route is suppressed.
	SuppressThreshold float64
	// ReuseThreshold below which a suppressed route is reusable.
	ReuseThreshold float64
	// MaxSuppress bounds how long a route can stay suppressed; the
	// penalty is capped so that it decays below ReuseThreshold within
	// this interval.
	MaxSuppress time.Duration
}

// DefaultConfig is the conventional parameter set: penalty 1000/flap,
// 15-minute half-life, suppress at 2000, reuse at 750, one hour max.
func DefaultConfig() Config {
	return Config{
		FlapPenalty:       1000,
		WithdrawPenalty:   1000,
		HalfLife:          15 * time.Minute,
		SuppressThreshold: 2000,
		ReuseThreshold:    750,
		MaxSuppress:       time.Hour,
	}
}

// maxPenalty returns the ceiling implied by MaxSuppress: the penalty
// value that decays to exactly ReuseThreshold after MaxSuppress.
func (c Config) maxPenalty() float64 {
	return c.ReuseThreshold * math.Exp2(float64(c.MaxSuppress)/float64(c.HalfLife))
}

// Key identifies a dampened route within its peering's damper: the
// prefix and the announcing source.
type Key struct {
	Prefix netip.Prefix
	Source netip.Addr
}

// recKey is Key without pointers (a netip.Addr carries one for its
// zone), so that the record table, which grows by one entry per route a
// client has ever flapped, is memory the garbage collector never scans.
// Zones are dropped: BGP prefixes and tunnel addresses have none.
type recKey struct {
	prefix, source [16]byte
	bits           int16
	v4             uint8 // bit 0: Prefix is IPv4; bit 1: Source is IPv4
}

func (k Key) rec() recKey {
	r := recKey{
		prefix: k.Prefix.Addr().As16(),
		source: k.Source.As16(),
		bits:   int16(k.Prefix.Bits()),
	}
	if k.Prefix.Addr().Is4() {
		r.v4 |= 1
	}
	if k.Source.Is4() {
		r.v4 |= 2
	}
	return r
}

// state is the per-key dampening record, stored by value and, like
// recKey, pointer-free: lastUpdate is an offset from Damper.start, not
// a time.Time.
type state struct {
	penalty    float64
	lastUpdate time.Duration
	suppressed bool
}

// minSweepAt is the table size below which RecordAt never sweeps.
const minSweepAt = 1024

// Damper tracks the flap penalties of one peering. It is not safe for
// concurrent use: its owner serialises every call (the server makes
// them only under the upstream's lock).
type Damper struct {
	cfg        Config
	maxPenalty float64 // cfg.maxPenalty(), computed once
	clock      clock.Clock
	start      time.Time
	metrics    *Metrics // set by Instrument; nil disables recording

	states map[recKey]state
	// sweepAt is the table size at which the next new record sweeps out
	// the decayed ones first: twice what the previous sweep left, so the
	// table stays within 2× the records still carrying a penalty and a
	// sweep's full scan is paid for by the insertions since the last.
	sweepAt int
}

// New returns a Damper with cfg, using clk for decay timing.
func New(cfg Config, clk clock.Clock) *Damper {
	if clk == nil {
		clk = clock.System
	}
	return &Damper{
		cfg: cfg, maxPenalty: cfg.maxPenalty(), clock: clk, start: clk.Now(),
		states: make(map[recKey]state), sweepAt: minSweepAt,
	}
}

// now is the clock reading as an offset from d.start.
func (d *Damper) now() time.Duration { return d.clock.Now().Sub(d.start) }

// decayTo brings s's penalty forward to time now.
func (d *Damper) decayTo(s *state, now time.Duration) {
	dt := now - s.lastUpdate
	if dt <= 0 {
		return
	}
	s.penalty *= math.Exp2(-float64(dt) / float64(d.cfg.HalfLife))
	s.lastUpdate = now
	if s.suppressed && s.penalty < d.cfg.ReuseThreshold {
		s.suppressed = false
		d.metrics.reuse()
	}
	// Drop negligible state.
	if s.penalty < 1 {
		s.penalty = 0
	}
}

// decayed returns k's record brought forward to now and stored back
// (so a reuse crossing is counted once).
func (d *Damper) decayed(k Key) (state, bool) {
	rk := k.rec()
	s, ok := d.states[rk]
	if ok {
		d.decayTo(&s, d.now())
		d.states[rk] = s
	}
	return s, ok
}

// RecordAt applies a flap of k at time t — a withdrawal, or else a
// (re-)announcement — and returns whether the route is now suppressed.
// A caller that reads the clock once for many flaps passes that reading.
func (d *Damper) RecordAt(k Key, t time.Time, withdraw bool) bool {
	w := d.cfg.FlapPenalty
	if withdraw {
		w = d.cfg.WithdrawPenalty
	}
	rk, now := k.rec(), t.Sub(d.start)
	s, ok := d.states[rk]
	if !ok {
		if len(d.states) >= d.sweepAt {
			d.sweep(now)
			d.sweepAt = max(2*len(d.states), minSweepAt)
		}
		s.lastUpdate = now
	}
	d.decayTo(&s, now)
	s.penalty = min(s.penalty+w, d.maxPenalty)
	d.metrics.penalty(withdraw)
	if s.penalty >= d.cfg.SuppressThreshold && !s.suppressed {
		s.suppressed = true
		d.metrics.suppress()
	}
	d.states[rk] = s
	return s.suppressed
}

// RecordFlap registers a re-announcement (attribute change) of k,
// returning true if the route is suppressed.
func (d *Damper) RecordFlap(k Key) bool {
	return d.RecordAt(k, d.clock.Now(), false)
}

// RecordWithdraw registers a withdrawal of k, returning true if the
// route is suppressed.
func (d *Damper) RecordWithdraw(k Key) bool {
	return d.RecordAt(k, d.clock.Now(), true)
}

// Suppressed reports whether k is currently suppressed, applying decay
// first.
func (d *Damper) Suppressed(k Key) bool {
	s, _ := d.decayed(k)
	return s.suppressed
}

// Penalty returns the current decayed penalty for k (0 if untracked).
func (d *Damper) Penalty(k Key) float64 {
	s, _ := d.decayed(k)
	return s.penalty
}

// ReuseIn estimates how long until k's penalty decays below the reuse
// threshold (zero if not suppressed).
func (d *Damper) ReuseIn(k Key) time.Duration {
	s, _ := d.decayed(k)
	if !s.suppressed || s.penalty <= d.cfg.ReuseThreshold {
		return 0
	}
	halfLives := math.Log2(s.penalty / d.cfg.ReuseThreshold)
	return time.Duration(halfLives * float64(d.cfg.HalfLife))
}

// Sweep removes fully decayed records, returning how many remain.
// RecordAt sweeps by itself whenever the table has doubled since
// the last sweep, so a record outlives its route's last flap by at most
// MaxSuppress + HalfLife·log2(ReuseThreshold) of further traffic (the
// capped penalty decaying below 1); nobody needs to call this on a
// timer.
func (d *Damper) Sweep() int {
	d.sweep(d.now())
	return len(d.states)
}

func (d *Damper) sweep(now time.Duration) {
	for k, s := range d.states {
		was := s.suppressed
		d.decayTo(&s, now)
		switch {
		case s.penalty == 0 && !s.suppressed:
			delete(d.states, k)
		case s.suppressed != was:
			d.states[k] = s // the reuse crossing was counted: keep it so
		}
	}
}

// Tracked reports how many (prefix, source) records exist.
func (d *Damper) Tracked() int { return len(d.states) }
