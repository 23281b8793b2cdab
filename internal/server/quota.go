package server

// Per-client resource quotas and graceful shedding. The mux interposes
// on everything a client does (§3); quotas make that interposition
// bounded: a runaway client hits its max-prefix limit (warn →
// dampen-new → teardown), a stalled client has its queued live
// announcements shed and replaced by a replay of the tables, and neither
// ever degrades service for a healthy client. All containment actions
// are counted on the peering_quota_* telemetry family.

import "math"

const (
	// quotaWarnFraction of the max-prefix limit is where a client's
	// excursion is counted as a warning, once until it drops back.
	quotaWarnFraction = 0.8
	// DefaultMaxQueueOps caps the live routes one client's fan-out queue
	// may hold (QuotaConfig.MaxQueueOps zero). It is the only bound on
	// live traffic — the queue is a FIFO of frames and folds nothing —
	// and so, with the one table a replay may add, bounds the memory a
	// stalled client's worker can strand. Beyond it, live announcements
	// are shed and recovered by a replay.
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
	// TeardownAfter is how many announcements a client may have
	// rejected over the limit before the teardown tier fires: its
	// sessions end with Cease/max-prefixes-reached (RFC 4486) and its
	// routes are withdrawn. Zero disables teardown — the client stays
	// connected, capped at dampen-new.
	TeardownAfter int
	// MaxQueueOps caps the live routes queued toward one client; a
	// replay's snapshot frames are exempt (outQueue.putFrame). Zero
	// means DefaultMaxQueueOps; negative disables the cap.
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

// prefixLimit resolves the max-prefix limit for one account: its
// override, else the server-wide default. 0 = unlimited.
func (s *Server) prefixLimit(acct ClientAccount) int {
	if acct.MaxPrefixes > 0 {
		return acct.MaxPrefixes
	}
	return s.cfg.Quota.MaxPrefixes
}

// warnLine is the advert count at which the warning tier fires.
func warnLine(limit int) int {
	return int(math.Ceil(float64(limit) * quotaWarnFraction))
}

// admitPrefixLocked admits or rejects one net-new announcement by client
// c toward upstream u under the client's max-prefix limit, bumping the
// warn/reject tiers as crossed. A prefix already advertised never
// consumes headroom, so callers ask only for prefixes u.advertised
// lacks; on false they drop the announcement and own the teardown
// escalation via quotaStrike. Callers hold u.mu.
func (s *Server) admitPrefixLocked(c *clientConn, u *Upstream) bool {
	limit, id := s.prefixLimit(c.account), c.account.ID
	if limit <= 0 {
		return true
	}
	count := u.advCount[id]
	if count >= limit {
		s.metrics.quotaRejected.Inc()
		return false
	}
	if count+1 >= warnLine(limit) && !u.quotaWarned[id] {
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

// resyncClient rebuilds a laggard client's view after fan-out shedding
// by replaying every upstream's table into its queue, the way a joiner
// gets it; the cap that shed the live frames exempts the replay's, so a
// table larger than the cap still converges. Announcements only:
// withdrawals are never shed, and re-announcing a route the client holds
// is an idempotent implicit update. The client's worker is the only
// caller, between two drains, so at most one resync is ever queued.
func (s *Server) resyncClient(c *clientConn) {
	s.metrics.quotaResyncs.Inc()
	for _, u := range s.Upstreams() {
		s.enqueueReplay(c, u, false)
	}
}
