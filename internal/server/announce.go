package server

// The announce direction, client → upstream: the safety pipeline of §3
// ("Enforcing safety"); DESIGN.md §17 has the order of checks and why.
// One handler serves both mux modes, which differ only in how an NLRI
// names its upstream (the session it arrived on in Quagga mode, its
// ADD-PATH path ID in BIRD mode). What depends on the UPDATE's
// attributes is decided once per UPDATE, what depends on the prefix
// once per prefix, and an upstream's advert table is read and written
// under one hold of its lock.

import (
	"net"
	"net/netip"
	"slices"
	"time"

	"peering/internal/bgp"
	"peering/internal/bufpool"
	"peering/internal/dampen"
	"peering/internal/policy/compiled"
	"peering/internal/router"
	"peering/internal/wire"
)

// clientSessHandler handles BGP events on a client-facing session.
type clientSessHandler struct {
	srv *Server
	c   *clientConn
	// upstream is the peer a Quagga-mode session stands for; nil on the
	// BIRD-mode ADD-PATH session, which covers every upstream.
	upstream *Upstream
}

// upstreamsOr returns only — a Quagga-mode client session's reach — or
// every upstream when it is nil, the BIRD-mode session's.
func (s *Server) upstreamsOr(only *Upstream) []*Upstream {
	if only != nil {
		return []*Upstream{only}
	}
	return s.Upstreams()
}

func (h *clientSessHandler) Established(_ *bgp.Session) {
	// Replay the upstream table(s), then an end-of-RIB marker so that a
	// reconnecting client can flush stale entries from its per-peer
	// views. The replay goes through the client's fan-out queue, where
	// live withdrawals queue behind the snapshot frames instead of
	// overtaking them.
	for _, u := range h.srv.upstreamsOr(h.upstream) {
		h.srv.enqueueReplay(h.c, u, h.upstream != nil)
	}
	if h.upstream == nil {
		h.c.out.putEoR(0)
	}
}

func (h *clientSessHandler) UpdateReceived(_ *bgp.Session, upd *wire.Update) {
	h.srv.handleClientUpdate(h.c, h.upstream, upd)
}

// Closed distinguishes a clean goodbye from a transport blip. A Cease
// from the client withdraws its routes immediately; anything else
// retains them stale for the restart window while the supervisor
// redials the session's stream.
func (h *clientSessHandler) Closed(_ *bgp.Session, err error) {
	if err == nil {
		return // our own administrative teardown; owners handle cleanup
	}
	if bgp.IsPeerCease(err) {
		h.srv.dropClientAdverts(h.c.account.ID, h.upstream, false)
		return
	}
	h.srv.markClientStale(h.c.account.ID, h.upstream)
}

// handleClientUpdate runs the safety pipeline on one UPDATE from client
// c and relays what passes. only is the upstream the session stands for
// (Quagga mode); nil means every NLRI's path ID names its upstream
// (BIRD mode). upd is consumed: its NLRI slices are filtered in place.
func (s *Server) handleClientUpdate(c *clientConn, only *Upstream, upd *wire.Update) {
	// recv stamps the convergence measurement: announce-to-upstream-send
	// latency starts the moment the client's UPDATE is in hand.
	recv := s.clk.Now()
	if upd.Refresh {
		// No end-of-RIB: a refresh is not a restart, nothing is swept.
		for _, u := range s.upstreamsOr(only) {
			s.enqueueReplay(c, u, false)
		}
		return
	}
	if upd.IsEndOfRIB() {
		// The client finished re-announcing after a restart: stale
		// adverts it did not reclaim are flushed.
		s.dropClientAdverts(c.account.ID, only, true)
		return
	}

	// Demultiplex: a client names a handful of upstreams at most, kept
	// in a small slice searched linearly. NLRIs whose path ID names no
	// upstream go before anything is counted against them.
	var buf [4]*Upstream
	ups, wd, reach := append(buf[:0], only), upd.Withdrawn, upd.Reach
	if only == nil {
		ups, wd = s.demux(ups[:0], wd)
		ups, reach = s.demux(ups, reach)
	}
	if upd.Attrs == nil {
		reach = nil
	}

	// Per UPDATE: the compiled AS-path policy (Peerlock / Peerlock-lite).
	// A client is never a transit neighbor, so a path carrying a
	// protected AS is a provider-route leak whatever the prefix says; the
	// verdict precedes the allocation check so that a classic leak —
	// provider prefix AND provider path — counts as the leak it is, not
	// as a hijack, and it counts once per NLRI it decided.
	if f := s.policy.Current(); f != nil && len(reach) > 0 {
		if v := f.VerdictPath(upd.Attrs, compiled.Peer{AS: upd.Attrs.FirstAS()}); v.Accept {
			s.metrics.policyAccepted.Add(uint64(len(reach)))
		} else {
			s.metrics.policyRejected[v.Class].Add(uint64(len(reach)))
			reach = nil
		}
	}
	// Per UPDATE: the origin is the testbed ASN or a private ASN of an
	// emulated domain (stripped by vettedPath).
	foreignOrigin := false
	if len(reach) > 0 {
		origin := upd.Attrs.OriginAS()
		foreignOrigin = origin != 0 && origin != s.cfg.ASN && !router.IsPrivateASN(origin)
	}

	// Per prefix: ownership. No hijacks, no leaks of non-testbed space.
	wd = s.vetPrefixes(c, wd, false)
	reach = s.vetPrefixes(c, reach, foreignOrigin)
	if len(wd) == 0 && len(reach) == 0 {
		return
	}
	// Per UPDATE: attribute hygiene, all of it but NEXT_HOP. What the
	// path does not touch (communities, unknown attributes) is shared
	// with the client's decoded set, both immutable from here on.
	var vetted wire.Attrs
	if len(reach) > 0 {
		vetted = *upd.Attrs
		vetted.ASPath, vetted.HasLocalPref = s.vettedPath(upd.Attrs.ASPath), false
	}
	// Per upstream: the advert table, quota, dampening, the send.
	for _, u := range ups {
		s.relayToUpstream(c, u, only == nil, wd, reach, &vetted, recv)
	}
}

// demux drops from ns, in place, the NLRIs whose path ID names no
// upstream, and appends to ups each upstream named for the first time.
func (s *Server) demux(ups []*Upstream, ns []wire.NLRI) ([]*Upstream, []wire.NLRI) {
	kept := ns[:0]
next:
	for _, n := range ns {
		for _, u := range ups {
			if u.cfg.ID == uint32(n.ID) {
				kept = append(kept, n)
				continue next
			}
		}
		if u := s.Upstream(uint32(n.ID)); u != nil {
			ups = append(ups, u)
			kept = append(kept, n)
		}
	}
	return ups, kept
}

// vetPrefixes drops from ns, in place, every NLRI outside client c's
// allocation (a hijack) and — ownership first, so that a foreign prefix
// is a hijack whatever its origin — every NLRI when the UPDATE's origin
// AS is foreign. The allocation is consulted once per prefix: a BIRD
// client names one prefix once per upstream, back to back.
func (s *Server) vetPrefixes(c *clientConn, ns []wire.NLRI, foreignOrigin bool) []wire.NLRI {
	kept := ns[:0]
	var last netip.Prefix
	owned := false
	for _, n := range ns {
		if n.Prefix != last {
			last, owned = n.Prefix, s.allocatedTo(c.account, n.Prefix)
		}
		switch {
		case !owned:
			s.metrics.hijacksBlocked.Inc()
		case foreignOrigin:
			s.metrics.originBlocked.Inc()
		default:
			kept = append(kept, n)
		}
	}
	return kept
}

// relayToUpstream applies one vetted client UPDATE to upstream u: the
// NLRIs addressed to it (all of them in Quagga mode; in BIRD mode those
// whose path ID is u's) update u's advert table under one hold of u.mu,
// and what the world should hear of it is sent as one frame.
func (s *Server) relayToUpstream(c *clientConn, u *Upstream, bird bool, wd, reach []wire.NLRI, vetted *wire.Attrs, recv time.Time) {
	id := c.account.ID
	key := dampen.Key{Source: c.account.TunnelAddr, Upstream: u.cfg.ID}
	var attrs *wire.Attrs // vetted, completed for u at the first announcement
	var wdBuf, reachBuf [4]wire.NLRI
	outWd, outReach := wdBuf[:0], reachBuf[:0]
	strikes := 0

	u.mu.Lock()
	sess := u.sess
	// est: operations reach the wire now. With the upstream down they are
	// only recorded in u.advertised, which its Established handler
	// replays, and no penalty accrues for churn the world never sees.
	est := sess != nil && sess.Established()
	for _, n := range wd {
		if bird && uint32(n.ID) != u.cfg.ID {
			continue
		}
		// A spurious withdrawal — nothing of this client's advertised —
		// must neither reach the upstream nor charge the client.
		if ad := u.advertised[n.Prefix]; ad == nil || ad.owner != id {
			continue
		}
		u.delAdvertLocked(n.Prefix)
		if est {
			key.Prefix = n.Prefix
			s.damper.RecordWithdraw(key)
			outWd = append(outWd, wire.NLRI{Prefix: n.Prefix})
		}
	}
	for _, n := range reach {
		if bird && uint32(n.ID) != u.cfg.ID {
			continue
		}
		if attrs == nil {
			attrs = s.attrsFor(u, vetted)
		}
		// mine: this client already holds the prefix. One held by another
		// client (a federation agent and a local client share the
		// supernet) is net-new to this one, like one nobody holds.
		ad := u.advertised[n.Prefix]
		mine := ad != nil && ad.owner == id
		// Graceful re-announcement of a prefix retained stale across the
		// client's restart, attributes identical (both interned: a
		// pointer compare). Reclaimed silently — no upstream churn, no
		// penalty for a flap the world never saw.
		if mine && ad.stale && ad.attrs == attrs {
			ad.stale = false
			continue
		}
		// Max-prefix quota: only a net-new prefix consumes headroom; over
		// the limit the announcement is dropped and counts a strike.
		if !mine && !s.admitPrefixLocked(c, u) {
			strikes++
			continue
		}
		// Route-flap dampening, per peering, of every announcement that
		// would actually reach the upstream.
		if est {
			key.Prefix = n.Prefix
			if s.damper.RecordFlap(key) {
				s.metrics.flapsSuppressed.Inc()
				continue
			}
			outReach = append(outReach, wire.NLRI{Prefix: n.Prefix})
		}
		// pending until first sent: below if u is up, else by its replay.
		// A takeover releases the displaced owner's count with its advert.
		if !mine {
			u.delAdvertLocked(n.Prefix)
			u.advCount[id]++
		}
		u.advertised[n.Prefix] = &advert{owner: id, attrs: attrs, announced: recv, pending: !est}
	}
	u.mu.Unlock()

	// Repeated abuse ends the client with Cease/max-prefixes-reached,
	// off this goroutine: teardown closes the session whose reader we are.
	if strikes > 0 && s.quotaStrike(c, strikes) {
		go s.tearDownClient(c, wire.SubMaxPrefixesReached)
	}
	if len(outWd) == 0 && len(outReach) == 0 {
		return
	}
	// Encoded here into one pooled buffer the session writes as is: no
	// message is allocated, outWd and outReach never leave this stack.
	b, msgs, err := wire.AppendRun(bufpool.Get(0)[:0], outWd, attrs, outReach, sess.Options())
	if err == nil {
		err = sess.SendEncoded(net.Buffers{b}, msgs)
		bufpool.Put(b)
	}
	if err != nil {
		// The session died under us: the adverts stay recorded for its
		// replay, which also closes their convergence measurement.
		u.mu.Lock()
		for _, n := range outReach {
			if ad := u.advertised[n.Prefix]; ad != nil && ad.owner == id && ad.announced.Equal(recv) {
				ad.pending = true
			}
		}
		u.mu.Unlock()
		return
	}
	if n := len(outReach); n > 0 {
		s.metrics.announcementsRelayed.Add(uint64(n))
		took := s.clk.Now().Sub(recv).Seconds()
		for ; n > 0; n-- {
			s.metrics.convergence.Observe(took)
		}
	}
}

// vettedPath is the AS_PATH half of attribute hygiene, the same toward
// every upstream: private ASNs are stripped (emulated domains stay
// invisible) and the testbed ASN is forced at the path head. One pass,
// two allocations; in is only read.
func (s *Server) vettedPath(in []wire.Segment) []wire.Segment {
	own := s.cfg.ASN
	total := 0
	for _, seg := range in {
		total += len(seg.ASNs)
	}
	// asns[0] is kept free for the testbed ASN, so that prepending it
	// extends the first segment backwards instead of copying it.
	asns := make([]uint32, 1, total+1)
	segs := make([]wire.Segment, 0, len(in)+1)
	for _, seg := range in {
		start := len(asns)
		for _, asn := range seg.ASNs {
			if asn == own || !router.IsPrivateASN(asn) {
				asns = append(asns, asn)
			}
		}
		if len(asns) > start {
			segs = append(segs, wire.Segment{Type: seg.Type, ASNs: asns[start:len(asns):len(asns)]})
		}
	}
	if len(asns) == 1 || asns[1] != own {
		asns[0] = own
		if len(segs) > 0 && segs[0].Type == wire.SegSequence {
			segs[0].ASNs = asns[: 1+len(segs[0].ASNs) : 1+len(segs[0].ASNs)]
		} else {
			segs = slices.Insert(segs, 0, wire.Segment{Type: wire.SegSequence, ASNs: asns[:1:1]})
		}
	}
	return segs
}

// attrsFor completes hygiene toward upstream u — NEXT_HOP is the
// server's address on that peering — and interns the result, so that a
// graceful re-announcement resolves to the very pointer in u.advertised.
// A client re-uses a few attribute sets, so the set is looked up from a
// stack copy first; only one never seen before is copied out.
func (s *Server) attrsFor(u *Upstream, vetted *wire.Attrs) *wire.Attrs {
	out := *vetted
	out.NextHop = u.cfg.LocalAddr
	if known := s.intern.Lookup(&out); known != nil {
		return known
	}
	fresh := out
	return s.intern.Intern(&fresh)
}
