package federation

import (
	"fmt"
	"net/netip"
	"sync"

	"peering/internal/bgp"
	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/muxproto"
	"peering/internal/server"
	"peering/internal/wire"
)

// agent is a member's federation endpoint. It wears two hats:
//
//   - toward its own server it is an ordinary client with a Federated
//     account: it hears every local peer's routes verbatim (the import
//     source) and relays remote members' vetted announcements into the
//     normal announcement pipeline (the export sink);
//   - toward the backhaul it terminates the passive side of every
//     mirrored upstream's iBGP session, replaying and streaming its
//     mux's per-peer tables out and feeding announcements back in.
type agent struct {
	m  *member
	cl *client.Client

	mu sync.Mutex
	// exports holds the established backhaul sessions this agent
	// serves, keyed by (consuming member, local upstream ID).
	exports map[exportKey]*bgp.Session
	// tagged caches metro-tagged clones keyed by the client-interned
	// attrs pointer: a stable table tags each attribute set once.
	tagged map[*wire.Attrs]*wire.Attrs
}

type exportKey struct {
	peer int
	uid  uint32
}

// agentTunnelAddr returns the agent's address on its own server's
// tunnel LAN. Researcher clients conventionally live in 10.250.0.0/16;
// agents take 10.251.0.0/16 so the spaces never collide.
func agentTunnelAddr(idx int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 251, 0, byte(idx + 1)})
}

// newAgent registers the member's federated account, connects the
// agent as a client of its own server, and starts forwarding.
func newAgent(mem *member) (*agent, error) {
	srv := mem.cfg.Server
	err := srv.RegisterClient(server.ClientAccount{
		ID:         AgentAccountID,
		Allocation: mem.mesh.cfg.Allocation,
		TunnelAddr: agentTunnelAddr(mem.idx),
		Federated:  true,
	})
	if err != nil {
		return nil, fmt.Errorf("federation: register agent at %s: %w", mem.name, err)
	}
	ca, cb := bufconn.Pipe()
	if err := srv.AcceptClient(AgentAccountID, ca); err != nil {
		return nil, fmt.Errorf("federation: accept agent at %s: %w", mem.name, err)
	}
	ag := &agent{
		m:       mem,
		exports: make(map[exportKey]*bgp.Session),
		tagged:  make(map[*wire.Attrs]*wire.Attrs),
	}
	cl, err := client.Connect(client.Config{
		Name:     AgentAccountID,
		RouterID: mem.cfg.RouterID,
		Clock:    mem.mesh.clk,
	}, cb)
	if err != nil {
		return nil, fmt.Errorf("federation: connect agent at %s: %w", mem.name, err)
	}
	ag.cl = cl
	cl.OnRoute(ag.onRoute)
	return ag, nil
}

func (ag *agent) close() {
	ag.cl.Close()
}

// onRoute streams a local peer's route change to every member currently
// consuming that peer over the backhaul. Routes learned from mirrored
// upstreams are never re-exported (split horizon): uid is only in
// localUp for this mux's real peers.
func (ag *agent) onRoute(uid uint32, upd *wire.Update) {
	mem := ag.m
	if _, ok := mem.localUp[uid]; !ok {
		return
	}
	if len(upd.Reach) == 0 && len(upd.Withdrawn) == 0 {
		return
	}
	met := mem.mesh.metrics
	ag.mu.Lock()
	defer ag.mu.Unlock()
	for key, sess := range ag.exports {
		if key.uid != uid {
			continue
		}
		peer := mem.mesh.members[key.peer]
		if peer.cfg.Metro == mem.cfg.Metro {
			// Same metro: the route never crosses the backhaul.
			if n := len(upd.Reach); n > 0 && upd.Attrs != nil {
				met.suppressed.With(mem.name, peer.name).Add(uint64(n))
			}
			continue
		}
		run := wire.Update{Withdrawn: upd.Withdrawn}
		if upd.Attrs != nil && len(upd.Reach) > 0 {
			run.Attrs, run.Reach = ag.taggedLocked(upd.Attrs), upd.Reach
		}
		if sent, _ := sess.SendRuns([]wire.Update{run}, nil); sent[0] && len(run.Reach) > 0 {
			met.exported.With(mem.name, peer.name).Add(uint64(len(run.Reach)))
		}
	}
}

// taggedLocked returns attrs with this member's metro community
// attached, cloning at most once per interned attribute set.
func (ag *agent) taggedLocked(a *wire.Attrs) *wire.Attrs {
	if t, ok := ag.tagged[a]; ok {
		return t
	}
	t := a.Clone()
	t.AddCommunity(ag.m.tag)
	ag.tagged[a] = t
	return t
}

// exportEstablished replays the full local table of upstream uid to a
// freshly established backhaul session, then sends end-of-RIB so the
// consumer sweeps whatever it retained stale from a previous session.
// The replay holds ag.mu: a concurrent onRoute either lands in the
// snapshot (view updates precede the callback) or queues behind the
// replay, so the consumer never ends on attrs older than the table.
func (ag *agent) exportEstablished(peer *member, uid uint32, sess *bgp.Session) {
	mem := ag.m
	met := mem.mesh.metrics
	ag.mu.Lock()
	defer ag.mu.Unlock()
	ag.exports[exportKey{peer.idx, uid}] = sess
	var runs []wire.Update // one per tagged attribute set, none within the metro
	if peer.cfg.Metro == mem.cfg.Metro {
		if n := ag.cl.RouteCount(uid); n > 0 {
			met.suppressed.With(mem.name, peer.name).Add(uint64(n))
		}
	} else {
		idx := make(map[*wire.Attrs]int)
		for _, r := range ag.cl.Routes(uid) {
			a := ag.taggedLocked(r.Attrs)
			if _, ok := idx[a]; !ok {
				idx[a], runs = len(runs), append(runs, wire.Update{Attrs: a})
			}
			runs[idx[a]].Reach = append(runs[idx[a]].Reach, wire.NLRI{Prefix: r.Prefix})
		}
	}
	sent, err := sess.SendRuns(runs, nil)
	for i, r := range runs {
		if sent[i] {
			met.exported.With(mem.name, peer.name).Add(uint64(len(r.Reach)))
		}
	}
	if err != nil {
		return // session died mid-replay; the next establish retries
	}
	sess.Send(&wire.Update{})
}

// exportClosed drops the session from the export set (unless a newer
// session already took the slot).
func (ag *agent) exportClosed(peer *member, uid uint32, sess *bgp.Session) {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	key := exportKey{peer.idx, uid}
	if ag.exports[key] == sess {
		delete(ag.exports, key)
	}
}

// backhaulAnnounce relays a remote member's (already vetted)
// announcement into this mux's normal client pipeline, verbatim. The
// server re-vets — idempotently on an already-vetted path — and
// rewrites NEXT_HOP to the real peering address, so what leaves this
// exchange is attribute-for-attribute what a locally attached client
// would have produced. End-of-RIB passes through in Quagga mode only:
// the client's BIRD session is shared across upstreams, where one
// upstream's end-of-RIB would sweep every upstream's stale adverts.
func (ag *agent) backhaulAnnounce(peer *member, uid uint32, upd *wire.Update) {
	if upd.IsEndOfRIB() {
		if p := ag.cl.Provisioning(); p != nil && p.Mode == muxproto.ModeQuagga {
			ag.cl.Relay(uid, upd)
		}
		return
	}
	if ag.cl.Relay(uid, upd) == nil {
		if n := len(upd.Reach); n > 0 {
			ag.m.mesh.metrics.announced.With(peer.name, ag.m.name).Add(uint64(n))
		}
	}
}

// exportHandler wires one passive backhaul session into the agent.
type exportHandler struct {
	ag   *agent
	peer *member
	uid  uint32
}

func (h *exportHandler) Established(s *bgp.Session) {
	h.ag.exportEstablished(h.peer, h.uid, s)
}

func (h *exportHandler) UpdateReceived(s *bgp.Session, u *wire.Update) {
	h.ag.backhaulAnnounce(h.peer, h.uid, u)
}

func (h *exportHandler) Closed(s *bgp.Session, _ error) {
	h.ag.exportClosed(h.peer, h.uid, s)
}

// sessionCount reports the agent's established client sessions (toward
// its own mux) — a liveness signal for status.
func (ag *agent) sessionCount() int {
	return ag.cl.SessionCount()
}
