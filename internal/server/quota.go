package server

// Per-client resource quotas and graceful shedding. The mux interposes
// on everything a client does (§3); quotas make that interposition
// bounded: a runaway client hits its max-prefix limit (warn →
// dampen-new → teardown), a stalled client has its queued
// announcements shed and replaced by a synchronous resync, and neither
// ever degrades service for a healthy client. All containment actions are
// counted on the peering_quota_* telemetry family.

import (
	"math"

	"peering/internal/wire"
)

// Default quota parameters, used where QuotaConfig fields are zero.
const (
	// DefaultQuotaWarnFraction of the max-prefix limit at which a
	// client's first excursion is counted as a warning.
	DefaultQuotaWarnFraction = 0.8
	// DefaultMaxQueueOps hard-caps one client's fan-out queue, counted
	// in routes. It is the queue's only bound — the queue is a FIFO of
	// frames and folds nothing — and so bounds the memory a stalled
	// client's worker can strand. Beyond it, announcements are shed and
	// recovered by a full resync.
	DefaultMaxQueueOps = 1 << 17
)

// QuotaConfig bounds per-client resource usage. The zero value applies
// no max-prefix limit and the default fan-out queue cap.
type QuotaConfig struct {
	// MaxPrefixes caps how many distinct prefixes one client may have
	// advertised to a single upstream at once (the classic max-prefix
	// limit, enforced per client × upstream). Zero means unlimited.
	// ClientAccount.MaxPrefixes overrides it per client.
	MaxPrefixes int
	// WarnFraction of the limit at which the warning tier fires (once
	// per excursion above the line). Zero means
	// DefaultQuotaWarnFraction.
	WarnFraction float64
	// TeardownAfter is how many announcements a client may have
	// rejected over the limit before the teardown tier fires: its
	// sessions end with Cease/max-prefixes-reached (RFC 4486) and its
	// routes are withdrawn. Zero disables teardown — the client stays
	// connected, capped at dampen-new.
	TeardownAfter int
	// MaxQueueOps hard-caps a client's fan-out queue depth in routes.
	// Zero means DefaultMaxQueueOps; negative disables the cap.
	MaxQueueOps int
}

// maxQueueOps resolves the configured fan-out queue cap.
func (q QuotaConfig) maxQueueOps() int {
	if q.MaxQueueOps < 0 {
		return 0 // disabled
	}
	if q.MaxQueueOps == 0 {
		return DefaultMaxQueueOps
	}
	return q.MaxQueueOps
}

// prefixLimit resolves the max-prefix limit for one client: the
// account's override, else the server-wide default. 0 = unlimited.
func (s *Server) prefixLimit(c *clientConn) int {
	if c.account.MaxPrefixes > 0 {
		return c.account.MaxPrefixes
	}
	return s.cfg.Quota.MaxPrefixes
}

// warnLine is the advert count at which the warning tier fires.
func (s *Server) warnLine(limit int) int {
	f := s.cfg.Quota.WarnFraction
	if f <= 0 || f > 1 {
		f = DefaultQuotaWarnFraction
	}
	return int(math.Ceil(float64(limit) * f))
}

// admitPrefixLocked admits or rejects one net-new announcement by client
// c toward upstream u under the client's max-prefix limit, bumping the
// warn/reject tiers as crossed. A prefix already advertised never
// consumes headroom, so callers ask only for prefixes u.advertised
// lacks; on false they drop the announcement and own the teardown
// escalation via quotaStrike. Callers hold u.mu.
func (s *Server) admitPrefixLocked(c *clientConn, u *Upstream) bool {
	limit, id := s.prefixLimit(c), c.account.ID
	if limit <= 0 {
		return true
	}
	count := u.advCount[id]
	if count >= limit {
		s.metrics.quotaRejected.Inc()
		return false
	}
	if count+1 >= s.warnLine(limit) && !u.quotaWarned[id] {
		u.quotaWarned[id] = true
		s.metrics.quotaWarnings.Inc()
	}
	return true
}

// quotaStrike records n rejected announcements and reports whether the
// client has crossed the teardown tier.
func (s *Server) quotaStrike(c *clientConn, n int) bool {
	after := s.cfg.Quota.TeardownAfter
	if after <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quotaStrikes += n
	return c.quotaStrikes >= after && !c.tornDown
}

// tearDownClient ends a client's service for breaching its quota: every
// live session gets a Cease with the given RFC 4486 subcode, the
// supervisors stop, the client's routes are withdrawn from all
// upstreams, and the transport closes. Idempotent. Runs off the caller's
// goroutine — call it with `go` from session handlers, which would
// otherwise deadlock closing their own session.
func (s *Server) tearDownClient(c *clientConn, subcode uint8) {
	c.mu.Lock()
	if c.tornDown {
		c.mu.Unlock()
		return
	}
	c.tornDown = true
	c.mu.Unlock()
	s.metrics.quotaTeardowns.Inc()
	for _, sup := range c.supervisors() {
		if sess := sup.Session(); sess != nil {
			sess.CloseCease(subcode)
		}
	}
	c.stopSupervisors()
	// Withdraw before closing the transport: detachClient (triggered by
	// mux.Done) then finds nothing left to retain stale.
	s.dropClientAdverts(c.account.ID, nil, false)
	c.mux.Close()
}

// resyncClient rebuilds a laggard client's view after fan-out shedding:
// the full Adj-RIB-In of every upstream is packed and sent down the
// client's session(s) directly — not through the queue, whose cap is
// what triggered the shed — so a table larger than the cap still
// converges. Announcements only: withdrawals are never shed, so the
// client's view is complete once the walk lands (re-announcing a route
// the client already holds is an idempotent implicit update).
func (s *Server) resyncClient(c *clientConn) {
	s.metrics.quotaResyncs.Inc()
	for _, u := range s.Upstreams() {
		skey, pathID := s.sessionKey(u)
		sess := c.session(skey)
		if sess == nil || !sess.Established() {
			continue // the Established replay will rebuild the view instead
		}
		var groups []wire.AttrGroup
		u.adjIn.WalkGrouped(func(attrs *wire.Attrs, nlris []wire.NLRI) {
			for i := range nlris {
				nlris[i].ID = pathID
			}
			groups = append(groups, wire.AttrGroup{Attrs: attrs, NLRIs: nlris})
		})
		for _, upd := range wire.PackGrouped(nil, groups, sess.Options()) {
			if sess.Send(upd) != nil {
				break // session died mid-resync; its replay recovers
			}
		}
	}
}
