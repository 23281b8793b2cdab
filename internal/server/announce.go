package server

// The announce direction, client → upstream: the safety pipeline of §3
// ("Enforcing safety"); DESIGN.md §17 has the order of checks and why.
// One handler serves both mux modes, which differ only in how an NLRI
// names its upstream (the session it arrived on in Quagga mode, its
// ADD-PATH path ID in BIRD mode). It takes what the session reader
// read in one go: every UPDATE of the burst is vetted alone — what
// depends on its attributes once per UPDATE, what depends on the prefix
// once per prefix — and the burst is then relayed once per upstream,
// under one hold of its lock and in one write.

import (
	"net/netip"
	"slices"
	"sync"
	"time"

	"peering/internal/bgp"
	"peering/internal/dampen"
	"peering/internal/policy/compiled"
	"peering/internal/wire"
)

// clientSessHandler handles BGP events on a client-facing session.
type clientSessHandler struct {
	srv *Server
	c   *clientConn
	// upstream is the peer a Quagga-mode session stands for; nil on the
	// BIRD-mode ADD-PATH session, which covers every upstream.
	upstream *Upstream

	// mu serialises the bursts that share burst: a supervisor's
	// successive sessions share their handler, and a dead session's
	// reader may still be inside it when its successor's starts.
	mu    sync.Mutex
	burst clientBurst
}

// clientBurst is a handler's scratch, reused from burst to burst so that
// holding one allocates nothing, and cleared after each relay so that it
// pins nothing a burst decoded.
type clientBurst struct {
	vetted []vettedUpdate // what passed vetting, in arrival order
	ups    []*Upstream    // BIRD mode: every upstream a path ID named
	// runs is one upstream's share of vetted at a time: what each UPDATE
	// withdraws and announces toward it, their NLRIs back to back in
	// nlris. sent is which of them went out.
	runs  []wire.Update
	nlris []wire.NLRI
	sent  []bool
}

// vettedUpdate is one UPDATE of a burst after vetting.
type vettedUpdate struct {
	// upd's Withdrawn and Reach are filtered in place to what passed.
	upd *wire.Update
	// attrs is *upd.Attrs after attribute hygiene but NEXT_HOP, set when
	// upd announces anything.
	attrs wire.Attrs
}

// upstreamsOr returns only — a Quagga-mode client session's reach — or
// every upstream when it is nil, the BIRD-mode session's.
func (s *Server) upstreamsOr(only *Upstream) []*Upstream {
	if only != nil {
		return []*Upstream{only}
	}
	return s.Upstreams()
}

func (h *clientSessHandler) Established(sess *bgp.Session) {
	// A session that did not negotiate the mux's one client codec (a
	// BIRD-mode client without ADD-PATH could tell no upstream's path
	// from another's) is refused before anything is queued for it. The
	// clean close ends its supervisor: nothing redials.
	if sess.Options() != h.srv.clientOpts {
		sess.CloseCease(wire.SubConnectionRejected)
		return
	}
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

// UpdateReceived is a burst of one.
func (h *clientSessHandler) UpdateReceived(_ *bgp.Session, upd *wire.Update) {
	h.handleClientUpdate([]*wire.Update{upd})
}

// UpdateBatchReceived implements bgp.BatchHandler: the session reader
// hands over every UPDATE already in flight as one burst.
func (h *clientSessHandler) UpdateBatchReceived(_ *bgp.Session, upds []*wire.Update) {
	h.handleClientUpdate(upds)
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

// handleClientUpdate runs the safety pipeline on a burst of UPDATEs from
// the handler's client and relays what passes: to the session's
// upstream in Quagga mode, to the upstream each NLRI's path ID names in
// BIRD mode. The UPDATEs are consumed: their NLRI slices are filtered in
// place.
func (h *clientSessHandler) handleClientUpdate(upds []*wire.Update) {
	s, c, only, b := h.srv, h.c, h.upstream, &h.burst
	h.mu.Lock()
	defer h.mu.Unlock()
	// One clock reading per burst, which the reader collected without
	// waiting: it stamps the convergence measurement of every
	// announcement in it (announce-to-upstream-send latency starts the
	// moment the client's UPDATE is in hand) and dates every flap.
	now := s.clk.Now()
	for _, upd := range upds {
		switch {
		case upd.Refresh:
			// Arrival order: what came before is relayed first.
			s.relayBurst(c, only, b, now)
			// No end-of-RIB: a refresh is not a restart, nothing is swept.
			for _, u := range s.upstreamsOr(only) {
				s.enqueueReplay(c, u, false)
			}
		case upd.IsEndOfRIB():
			s.relayBurst(c, only, b, now)
			// The client finished re-announcing after a restart: stale
			// adverts it did not reclaim are flushed.
			s.dropClientAdverts(c.account.ID, only, true)
		default:
			s.vetUpdate(c, only, b, upd)
		}
	}
	s.relayBurst(c, only, b, now)
}

// vetUpdate runs the checks of one client UPDATE and adds what passes,
// if anything, to the burst.
func (s *Server) vetUpdate(c *clientConn, only *Upstream, b *clientBurst, upd *wire.Update) {
	// Demultiplex: a client names a handful of upstreams at most, kept
	// in a small slice searched linearly. NLRIs whose path ID names no
	// upstream go before anything is counted against them.
	wd, reach := upd.Withdrawn, upd.Reach
	if only == nil {
		b.ups, wd = s.demux(b.ups, wd)
		b.ups, reach = s.demux(b.ups, reach)
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
		foreignOrigin = origin != 0 && origin != s.cfg.ASN && !wire.IsPrivateASN(origin)
	}

	// Per prefix: ownership. No hijacks, no leaks of non-testbed space.
	upd.Withdrawn = s.vetPrefixes(c, wd, false)
	upd.Reach = s.vetPrefixes(c, reach, foreignOrigin)
	if len(upd.Withdrawn) == 0 && len(upd.Reach) == 0 {
		return
	}
	// Per UPDATE: attribute hygiene, all of it but NEXT_HOP. What the
	// path does not touch (communities, unknown attributes) is shared
	// with the client's decoded set, both immutable from here on.
	b.vetted = append(b.vetted, vettedUpdate{upd: upd})
	if len(upd.Reach) > 0 {
		v := &b.vetted[len(b.vetted)-1]
		v.attrs = *upd.Attrs
		v.attrs.ASPath, v.attrs.HasLocalPref = s.vettedPath(upd.Attrs.ASPath), false
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

// relayBurst relays the burst's vetted UPDATEs to every upstream they
// name, one upstream after another, and empties the burst.
func (s *Server) relayBurst(c *clientConn, only *Upstream, b *clientBurst, now time.Time) {
	if len(b.vetted) > 0 {
		ups := b.ups
		if only != nil {
			ups = []*Upstream{only}
		}
		for _, u := range ups {
			s.relayToUpstream(c, u, only == nil, b, now)
		}
	}
	clear(b.vetted)
	clear(b.ups)
	b.vetted, b.ups = b.vetted[:0], b.ups[:0]
}

// relayToUpstream applies the burst's vetted UPDATEs to upstream u in
// arrival order — the NLRIs addressed to it: all of them in Quagga mode,
// in BIRD mode those whose path ID is u's — under one hold of u.mu, and
// hands what the world should hear of them, one run per UPDATE, to the
// session's run writer.
func (s *Server) relayToUpstream(c *clientConn, u *Upstream, bird bool, b *clientBurst, now time.Time) {
	id := c.account.ID
	key := dampen.Key{Source: c.account.TunnelAddr}
	// nlris has room for every NLRI of the burst up front, so that the
	// runs can slice it as it fills.
	total := 0
	for i := range b.vetted {
		total += len(b.vetted[i].upd.Withdrawn) + len(b.vetted[i].upd.Reach)
	}
	runs, nlris := b.runs[:0], slices.Grow(b.nlris[:0], total)
	strikes := 0

	u.mu.Lock()
	sess := u.sess
	// est: operations reach the wire now. With the upstream down they are
	// only recorded in u.advertised, which its Established handler
	// replays, and no penalty accrues for churn the world never sees.
	est := sess != nil && sess.Established()
	for i := range b.vetted {
		v := &b.vetted[i]
		var attrs *wire.Attrs // v.attrs, completed for u at the first announcement
		start := len(nlris)
		for _, n := range v.upd.Withdrawn {
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
				u.damper.RecordAt(key, now, true)
				nlris = append(nlris, wire.NLRI{Prefix: n.Prefix})
			}
		}
		mid := len(nlris)
		for _, n := range v.upd.Reach {
			if bird && uint32(n.ID) != u.cfg.ID {
				continue
			}
			if attrs == nil {
				attrs = s.attrsFor(u, &v.attrs)
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
				if u.damper.RecordAt(key, now, false) {
					s.metrics.flapsSuppressed.Inc()
					continue
				}
				nlris = append(nlris, wire.NLRI{Prefix: n.Prefix})
			}
			// pending until first sent: below if u is up, else by its replay.
			// A takeover releases the displaced owner's count with its advert.
			if !mine {
				u.delAdvertLocked(n.Prefix)
				u.advCount[id]++
			}
			u.advertised[n.Prefix] = &advert{owner: id, attrs: attrs, announced: now, pending: !est}
		}
		if len(nlris) > start {
			runs = append(runs, wire.Update{Withdrawn: nlris[start:mid], Attrs: attrs, Reach: nlris[mid:]})
		}
	}
	u.mu.Unlock()
	b.runs, b.nlris = runs, nlris // grown, for the next share

	// Repeated abuse ends the client with Cease/max-prefixes-reached,
	// off this goroutine: teardown closes the session whose reader we are.
	if strikes > 0 && s.quotaStrike(c, strikes) {
		go s.tearDownClient(c, wire.SubMaxPrefixesReached)
	}
	if len(runs) == 0 {
		return
	}
	// A run that did not go out — the session died under us, or the run
	// did not encode — leaves its adverts recorded for the replay, which
	// also closes their convergence measurement.
	sent, _ := sess.SendRuns(runs, b.sent)
	b.sent = sent
	relayed, lost := 0, false
	for i := range runs {
		if sent[i] {
			relayed += len(runs[i].Reach)
		} else {
			lost = true
		}
	}
	if lost {
		u.mu.Lock()
		for i, r := range runs {
			if sent[i] {
				continue
			}
			for _, n := range r.Reach {
				// Not an advert a later run of the burst replaced.
				if ad := u.advertised[n.Prefix]; ad != nil && ad.owner == id && ad.attrs == r.Attrs && ad.announced.Equal(now) {
					ad.pending = true
				}
			}
		}
		u.mu.Unlock()
	}
	if relayed > 0 {
		s.metrics.announcementsRelayed.Add(uint64(relayed))
		took := s.clk.Now().Sub(now).Seconds()
		for ; relayed > 0; relayed-- {
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
			if asn == own || !wire.IsPrivateASN(asn) {
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
