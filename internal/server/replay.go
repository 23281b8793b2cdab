// Replay integration: feed an archived MRT trace into the server as if
// its original upstream were announcing live. The replayer speaks real
// BGP over an in-memory pipe, so the trace exercises the same session,
// adj-RIB, policy, and fan-out paths a live upstream would.

package server

import (
	"peering/internal/bgp"
	"peering/internal/bufconn"
	"peering/internal/mrt"
)

// ReplayUpstream plays the trace read from r into the server through
// upstream u. The replayer's identity (AS, router ID, ADD-PATH offer)
// is derived from the trace's first record, so u should be configured
// with the ASN of the peer that originally sent the trace. The returned
// session is the replayer's side, left established so the server's
// tables can be inspected; close it to tear the upstream session down.
func (s *Server) ReplayUpstream(u *Upstream, r *mrt.Reader, cfg mrt.ReplayConfig) (mrt.ReplayStats, *bgp.Session, error) {
	serverEnd, replayEnd := bufconn.Pipe()
	s.AttachUpstream(u, serverEnd)
	return mrt.ReplaySession(replayEnd, r, mrt.SessionReplayConfig{
		PeerAS:  s.cfg.ASN,
		Metrics: s.metrics.bgp,
		Replay:  cfg,
	})
}
