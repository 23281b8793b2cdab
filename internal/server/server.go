// Package server implements the PEERING server (mux) — the paper's
// core contribution (§3). A server holds real BGP sessions with
// upstream peers (IXP route servers, bilateral peers, transit
// providers) and gives hosted experiments full interdomain control
// without running the BGP decision process itself:
//
//   - every route from every upstream peer is relayed to every client
//     (not just one best path), over one session per (client × peer) in
//     Quagga mode or a single ADD-PATH session in BIRD mode;
//   - client announcements are steered per upstream peer, so a client
//     can pick and choose peers to emulate a topology;
//   - safety is enforced by interposition: prefix-ownership and
//     origin filters (no hijacks or leaks), route-flap dampening,
//     private-ASN stripping, and source-address (spoof) filtering on
//     the data plane;
//   - upstream sessions stay established across client churn, so the
//     rest of the Internet sees a stable AS.
//
// Every counter the server keeps — relay volumes, safety
// interventions, fan-out pressure, graceful-restart retention, and an
// end-to-end convergence-latency histogram — lives on one telemetry
// registry (Config.Metrics, or a private one reachable via
// Telemetry). GET /stats and GET /metrics are two encodings of those
// same instruments; see metrics.go and DESIGN.md §10.
package server

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"peering/internal/bgp"
	"peering/internal/clock"
	"peering/internal/dampen"
	"peering/internal/dataplane"
	"peering/internal/mrt"
	"peering/internal/muxproto"
	"peering/internal/policy/compiled"
	"peering/internal/rib"
	"peering/internal/telemetry"
	"peering/internal/trie"
	"peering/internal/tunnel"
	"peering/internal/wire"
)

// Config parameterizes a PEERING server.
type Config struct {
	// Site names this server ("amsterdam01", "phoenix01").
	Site string
	// ASN is the testbed's public AS number (PEERING operates one ASN
	// and presents it to all peers).
	ASN uint32
	// RouterID is the server's BGP identifier.
	RouterID netip.Addr
	// Mode selects Quagga (per-peer sessions) or BIRD (ADD-PATH)
	// multiplexing toward clients.
	Mode muxproto.Mode
	// Dampening configures route-flap dampening of client
	// announcements; zero value uses dampen.DefaultConfig.
	Dampening dampen.Config
	// Clock drives timers (nil = system).
	Clock clock.Clock
	// RestartWindow bounds how long routes from a lost session are
	// retained as stale before being flushed (RFC 4724-style graceful
	// restart). Zero means DefaultRestartWindow.
	RestartWindow time.Duration
	// Reconnect shapes supervised session redial backoff; zero value
	// uses the bgp.Backoff defaults.
	Reconnect bgp.Backoff
	// Quota bounds per-client resource usage (max-prefix limits,
	// fan-out queue caps); see QuotaConfig. The zero value applies no
	// prefix limit and the default queue cap.
	Quota QuotaConfig
	// Shards is the prefix-hash shard count used for every per-upstream
	// Adj-RIB-In, the ingest worker pool, and each client's fan-out
	// queue (rounded up to a power of two; 0 = rib.DefaultShards). One
	// worker owns each shard, so this is also the ingest parallelism
	// for a full-table flood.
	Shards int
	// Metrics is the telemetry registry the server registers its metric
	// families on (nil = a private registry, reachable via Telemetry).
	// Because family names are fixed, two Servers must not share one
	// registry.
	Metrics *telemetry.Registry
	// Policy is an optional initial safety rule set (prefix ownership,
	// ROA origins, Peerlock), compiled and installed before any session
	// comes up. Nil starts the server unfiltered; LoadPolicy installs
	// or replaces rules at runtime.
	Policy *compiled.RuleSet
}

// DefaultRestartWindow is used when Config.RestartWindow is zero.
const DefaultRestartWindow = 2 * time.Minute

// Stats counts server activity, including safety interventions.
type Stats struct {
	// RoutesFromUpstreams counts UPDATE NLRIs received from peers.
	RoutesFromUpstreams uint64
	// RoutesRelayedToClients counts NLRIs fanned out to clients.
	RoutesRelayedToClients uint64
	// UpdatesToClients counts UPDATE messages sent to clients by the
	// fan-out pipeline. Batch packing puts many NLRIs in one message, so
	// RoutesRelayedToClients / UpdatesToClients is the packing ratio.
	UpdatesToClients uint64
	// FanoutCoalesced counts operations overwritten by a newer one on
	// the same (upstream, prefix) in an ingest batch's fold, before any
	// client queue saw them (counted once, not per client).
	FanoutCoalesced uint64
	// FanoutBackpressure counts enqueues that found a client's queue
	// above 32 768 routes (a slow client; upstream readers keep going
	// regardless).
	FanoutBackpressure uint64
	// FanoutQueueHighWater is the deepest any client's queue has been.
	FanoutQueueHighWater uint64
	// AnnouncementsRelayed counts client NLRIs accepted and sent to
	// upstream peers.
	AnnouncementsRelayed uint64
	// HijacksBlocked counts client announcements outside their
	// allocation.
	HijacksBlocked uint64
	// OriginBlocked counts announcements with a disallowed origin.
	OriginBlocked uint64
	// FlapsSuppressed counts announcements dropped by dampening.
	FlapsSuppressed uint64
	// SpoofsBlocked counts client packets with forbidden sources.
	SpoofsBlocked uint64
	// PolicyAccepted / PolicyRejected count compiled safety-filter
	// verdicts (both directions; rejects are summed across rule
	// classes — the per-class split is on /metrics).
	PolicyAccepted uint64
	PolicyRejected uint64
	// ReconnectAttempts counts supervised session redials.
	ReconnectAttempts uint64
	// SessionRecoveries counts sessions re-established after a failure.
	SessionRecoveries uint64
	// StaleRoutesRetained counts routes marked stale (instead of
	// withdrawn) when a session was lost.
	StaleRoutesRetained uint64
	// StaleRoutesFlushed counts stale routes withdrawn because they were
	// not re-announced by end-of-RIB or the restart window closed.
	StaleRoutesFlushed uint64
	// PacketsToClients / PacketsFromClients count tunnel traffic.
	PacketsToClients   uint64
	PacketsFromClients uint64
	// QuotaWarnings / QuotaRejected / QuotaTeardowns count the three
	// max-prefix containment tiers; FanoutShed and FanoutResyncs count
	// queue-cap shedding on lagging clients and the full-table resyncs
	// that recover them.
	QuotaWarnings  uint64
	QuotaRejected  uint64
	QuotaTeardowns uint64
	FanoutShed     uint64
	FanoutResyncs  uint64
	// ReplaySnapshotBuilds counts shard replays built from the table,
	// ReplaySnapshotHits those served from the snapshot an earlier
	// replay of the still unwritten shard left behind, and
	// ReplaySnapshotBytes the wire bytes such snapshots hold right now.
	// Hits near zero on a busy mux are writes releasing the snapshots,
	// not a fault.
	ReplaySnapshotBuilds uint64
	ReplaySnapshotHits   uint64
	ReplaySnapshotBytes  uint64
}

// UpstreamConfig describes one upstream peer of the server.
type UpstreamConfig struct {
	// ID is the stable identifier (≥1) used in stream numbering and
	// ADD-PATH path IDs.
	ID uint32
	// Name labels the peer.
	Name string
	// ASN is the peer's AS number (0 = learn from OPEN).
	ASN uint32
	// PeerAddr identifies the peer in client RIBs (its real address,
	// e.g. an IXP LAN address).
	PeerAddr netip.Addr
	// LocalAddr is the server's address facing this peer (NEXT_HOP for
	// announcements).
	LocalAddr netip.Addr
	// Transit marks paid upstream providers.
	Transit bool
	// FedVia names the federated mux this upstream is reached through
	// (empty for a directly attached peer). A federated upstream mirrors
	// a peer at another site: ASN/PeerAddr/Transit describe the real
	// remote peer, but the session itself runs iBGP over the backhaul to
	// the remote mux's federation agent, so the expected peer AS is the
	// testbed's own (see upstreamSessionConfig).
	FedVia string
	// Import, when set, is called on every non-refresh UPDATE from this
	// upstream before it is archived or dispatched — the federation
	// layer's chance to strip backhaul-only communities and count import
	// metrics. upd.Attrs arrives interned, so it is frozen: to change the
	// set, replace upd.Attrs with a changed clone, which is then interned.
	Import func(*wire.Update)
}

// advert is one prefix the server currently announces to an upstream on
// behalf of a client. Stale adverts are being retained across a client
// session loss (graceful restart) and are flushed if the client does not
// re-announce them before end-of-RIB or the restart window closes.
type advert struct {
	owner string
	attrs *wire.Attrs
	stale bool
	// announced is the clock reading when the client's announcement was
	// received; pending is true until the advert's first successful send
	// to the upstream closes the convergence-latency measurement (see
	// relayToUpstream). An announcement accepted while the upstream
	// is down stays pending until the Established replay delivers it.
	announced time.Time
	pending   bool
}

// Upstream is one live upstream peering.
type Upstream struct {
	cfg UpstreamConfig
	srv *Server

	// adjIn is internally synchronized (sharded); it is deliberately
	// outside u.mu so ingest workers on different shards never contend
	// here. u.mu still orders session identity, advert bookkeeping, and
	// the stale timer.
	adjIn *rib.ShardedAdj
	// replay is the cached replay snapshot of each adjIn shard
	// (fanout.go), guarded by that shard's lock and its own mutex.
	replay []replaySlot

	mu   sync.RWMutex
	sess *bgp.Session
	sup  *bgp.Supervisor
	// advertised maps prefix → the advert bookkeeping for withdraw,
	// disconnect, and graceful-restart handling.
	advertised map[netip.Prefix]*advert
	// advCount tracks, per owning client, how many entries of
	// advertised it holds — the incremental max-prefix quota reading.
	// Maintained by relayToUpstream/delAdvertLocked alongside every
	// mutation of advertised.
	advCount map[string]int
	// quotaWarned marks clients currently above the warn line, so the
	// warning tier fires once per excursion.
	quotaWarned map[string]bool
	// damper holds the dampening records of client announcements on this
	// peering (RFC 2439 keeps its figure of merit per peering).
	damper *dampen.Damper
	// staleTimer backstops the graceful-restart window for adjIn.
	staleTimer clock.Timer
}

// delAdvertLocked removes prefix p's advert, keeping the per-client
// count and warn-tier tracking consistent. Callers hold u.mu.
func (u *Upstream) delAdvertLocked(p netip.Prefix) {
	ad := u.advertised[p]
	if ad == nil {
		return
	}
	delete(u.advertised, p)
	n := u.advCount[ad.owner] - 1
	if n <= 0 {
		delete(u.advCount, ad.owner)
	} else {
		u.advCount[ad.owner] = n
	}
	if u.quotaWarned[ad.owner] {
		acct, _ := u.srv.accountOf(ad.owner) // unregistered: the default limit
		if limit := u.srv.prefixLimit(acct); limit <= 0 || n < warnLine(limit) {
			delete(u.quotaWarned, ad.owner)
		}
	}
}

// Config returns the upstream's configuration.
func (u *Upstream) Config() UpstreamConfig { return u.cfg }

// Established reports whether the upstream session is up. Read-only:
// stats pollers calling this never block the update write path.
func (u *Upstream) Established() bool {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.sess != nil && u.sess.State() == bgp.StateEstablished
}

// RoutesIn reports how many routes this peer currently exports to us.
// Lock-free: the sharded table keeps an atomic count.
func (u *Upstream) RoutesIn() int { return u.adjIn.Len() }

// ClientAccount is a vetted experiment's identity and authorization.
type ClientAccount struct {
	// ID is the experiment identifier.
	ID string
	// Allocation is the prefix set the client may announce and source
	// traffic from (a /24 per client out of the testbed /19, §3).
	Allocation []netip.Prefix
	// SpoofAllowed grants controlled source-address spoofing.
	SpoofAllowed bool
	// TunnelAddr is the client's address on the server's tunnel LAN
	// (used as the dampening source key).
	TunnelAddr netip.Addr
	// MaxPrefixes overrides Config.Quota.MaxPrefixes for this client
	// (0 = use the server-wide default).
	MaxPrefixes int
	// Federated marks a federation agent's account (internal/federation):
	// it announces on behalf of clients vetted at other muxes, so its
	// Allocation (the testbed supernet) is checked by containment instead
	// of being claimed exclusively in the allocation trie — several
	// agents and this mux's own clients all share that space.
	Federated bool
}

// clientConn is one connected client.
type clientConn struct {
	account ClientAccount
	mux     *tunnel.Mux
	pkt     *tunnel.PacketTunnel
	// out is the client's outbound frame queue, drained by a dedicated
	// worker (see fanout.go).
	out *outQueue

	mu sync.Mutex
	// sups supervises the BGP sessions toward this client, keyed by
	// upstream ID (BIRD: key 0). Supervisors redial their stream when a
	// session dies while the tunnel itself survives.
	sups map[uint32]*bgp.Supervisor
	// tunIface is the server-side dataplane interface toward this
	// client's tunnel.
	tunIface *dataplane.Iface
	// quotaStrikes counts announcements rejected over the max-prefix
	// limit; crossing Quota.TeardownAfter ends the client's service.
	quotaStrikes int
	// tornDown marks a client already torn down for a quota breach.
	tornDown bool
}

// session returns the live session for an upstream ID, if any (it may
// still be handshaking).
func (c *clientConn) session(id uint32) *bgp.Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	sup := c.sups[id]
	if sup == nil {
		return nil
	}
	return sup.Session()
}

// supervisors snapshots the client's supervisors, to act on unlocked.
func (c *clientConn) supervisors() []*bgp.Supervisor {
	c.mu.Lock()
	defer c.mu.Unlock()
	sups := make([]*bgp.Supervisor, 0, len(c.sups))
	for _, sup := range c.sups {
		sups = append(sups, sup)
	}
	return sups
}

// stopSupervisors administratively ends all of the client's sessions.
func (c *clientConn) stopSupervisors() {
	for _, sup := range c.supervisors() {
		sup.Stop()
	}
}

// drainSupervisors cancels redialing but leaves live sessions to end on
// their own. Used when the tunnel transport is already dead: each
// session's reader still drains its buffer, so a Cease the client sent
// just before the transport died is processed (immediate withdrawal)
// instead of being raced out by an administrative teardown (which would
// wrongly retain the routes stale).
func (c *clientConn) drainSupervisors() {
	for _, sup := range c.supervisors() {
		sup.Drain()
	}
}

// Server is a PEERING server instance.
//
// Lock hierarchy (DESIGN.md §12): mu, the one registry lock, is a leaf:
// it may be taken under an Upstream.mu or clientConn.mu, and code
// holding it takes no other lock but the clock's — not even mu again.
// The registries are read-mostly: the hot path (relay, stats)
// read-locks mu for the upstream map and takes no lock at all for the
// client list, the allocations or the archive — vetting reads the
// allocation table and the connection's own account — so concurrent
// upstream readers never serialize on client admission and bookkeeping.
type Server struct {
	cfg     Config
	clk     clock.Clock
	dp      *dataplane.Router
	metrics *serverMetrics
	// intern canonicalizes every attribute set the server stores or
	// relays, so N clients × M routes share O(distinct attr sets) memory.
	intern *wire.InternTable
	// clientOpts is the one codec of every client session: 4-octet ASNs,
	// and ADD-PATH exactly in BIRD mode. A session that negotiates other
	// options is refused (clientSessHandler.Established).
	clientOpts wire.Options
	// shards is the resolved Config.Shards; ingest is the per-shard
	// worker pool that owns all Adj-RIB-In mutation (see ingest.go).
	shards int
	ingest *ingestPool
	// policy holds the compiled safety filter (prefix ownership, ROA
	// origin validation, Peerlock) behind an atomic pointer. Ingest
	// workers and the client vetting path load it lock-free; LoadPolicy
	// swaps it. Nil current filter = unfiltered.
	policy compiled.Engine

	// mu guards the registries: the upstream map, swaps of the client
	// list, the accounts and their allocations, and the restart timers.
	mu        sync.RWMutex
	upstreams map[uint32]*Upstream

	// clients is the registry of connected clients, one per account ID:
	// a copy-on-write slice, swapped under mu on every membership change
	// and read lock-free by the ingest workers — once per relayed update,
	// where a fresh slice would dominate the hot path's allocation.
	clients atomic.Pointer[[]*clientConn]

	accounts map[string]ClientAccount
	owners   map[netip.Prefix]string // allocated prefix (masked) → client ID
	// alloc is owners as an index, rebuilt by RegisterClient, its only
	// writer: vetting and the spoof filter read it without mu.
	alloc atomic.Pointer[trie.Flat[string]]

	// restartTimers backstop per-client graceful-restart windows: if the
	// client has not re-announced its stale routes by then, they flush.
	restartTimers map[string]clock.Timer

	// arch is the optional MRT archive and archSnapSeq its snapshot
	// sequence (see warmstart.go).
	arch        atomic.Pointer[mrt.Archive]
	archSnapSeq atomic.Int64

	// closed is set first thing in Close: a session or transport dying
	// afterwards must not arm a restart-window timer nobody will stop.
	closed atomic.Bool
}

// New creates a server.
func New(cfg Config) *Server {
	if cfg.Mode == "" {
		cfg.Mode = muxproto.ModeQuagga
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Dampening.HalfLife == 0 {
		cfg.Dampening = dampen.DefaultConfig()
	}
	if cfg.RestartWindow <= 0 {
		cfg.RestartWindow = DefaultRestartWindow
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:           cfg,
		clk:           cfg.Clock,
		dp:            dataplane.NewRouter(cfg.Site),
		clientOpts:    wire.Options{AS4: true, AddPath: cfg.Mode == muxproto.ModeBIRD},
		intern:        wire.NewInternTable(),
		shards:        rib.ShardCount(cfg.Shards),
		upstreams:     make(map[uint32]*Upstream),
		accounts:      make(map[string]ClientAccount),
		owners:        make(map[netip.Prefix]string),
		restartTimers: make(map[string]clock.Timer),
	}
	s.clients.Store(&[]*clientConn{})
	s.ingest = newIngestPool(s, s.shards)
	s.metrics = newServerMetrics(reg, s)
	if cfg.Policy != nil {
		s.LoadPolicy(cfg.Policy)
	}
	return s
}

// LoadPolicy compiles rs and atomically installs it as the server's
// safety filter: upstream routes are vetted pre-RIB in the ingest
// workers, client announcements in handleClientUpdate. Every in-flight
// update sees either the old filter or the new one, never a mixture —
// the ingest worker loads the filter pointer once per operation. A nil
// rs uninstalls filtering. Reloads apply to traffic from this moment
// on: routes already accepted into an Adj-RIB-In under the old rules
// stay until their peer updates them (bounce the session or replay the
// archive to re-vet a full table).
func (s *Server) LoadPolicy(rs *compiled.RuleSet) *compiled.Filter {
	f := s.policy.Load(rs)
	if f != nil {
		s.metrics.policyCompileSeconds.Set(f.Status().CompileSeconds)
	}
	return f
}

// PolicyStatus reports the active filter's shape (Enabled false when
// the server runs unfiltered) — the body of GET /policy.
func (s *Server) PolicyStatus() compiled.Status {
	return s.policy.Current().Status()
}

// ASN returns the testbed AS number.
func (s *Server) ASN() uint32 { return s.cfg.ASN }

// Site returns the server's site name.
func (s *Server) Site() string { return s.cfg.Site }

// DP returns the server's dataplane router (for wiring into fabrics).
func (s *Server) DP() *dataplane.Router { return s.dp }

// ---------------------------------------------------------------------
// Upstream side

// AddUpstream registers an upstream peer. Attach starts its session.
func (s *Server) AddUpstream(cfg UpstreamConfig) (*Upstream, error) {
	if cfg.ID == 0 {
		return nil, errors.New("server: upstream ID must be ≥1 (0 is reserved)")
	}
	s.mu.Lock()
	if _, dup := s.upstreams[cfg.ID]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("server: upstream ID %d already registered", cfg.ID)
	}
	u := &Upstream{
		cfg: cfg, srv: s, adjIn: rib.NewShardedAdj(s.shards),
		replay:      make([]replaySlot, s.shards),
		advertised:  make(map[netip.Prefix]*advert),
		advCount:    make(map[string]int),
		quotaWarned: make(map[string]bool),
		damper:      dampen.New(s.cfg.Dampening, s.clk),
	}
	u.damper.Instrument(s.metrics.dampen)
	s.upstreams[cfg.ID] = u
	s.mu.Unlock()
	// A client whose session came up before this upstream existed gets
	// no further Established replay for it, so replay the (still empty)
	// table now: the walk opens the client's live-traffic sync gates for
	// this upstream, ordered against future ingest by the shard locks.
	// Clients registering concurrently replay on their own Established,
	// which reads the upstream registry after this store.
	for _, c := range s.clientList() {
		s.enqueueReplay(c, u, false)
	}
	return u, nil
}

// Upstream returns the upstream with the given ID.
func (s *Server) Upstream(id uint32) *Upstream {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.upstreams[id]
}

// Upstreams lists all registered upstream peers.
func (s *Server) Upstreams() []*Upstream {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Upstream, 0, len(s.upstreams))
	for _, u := range s.upstreams {
		out = append(out, u)
	}
	return out
}

// upstreamSessionConfig is the session config shared by supervised and
// unsupervised upstream attachment.
func (s *Server) upstreamSessionConfig(u *Upstream) bgp.Config {
	peerAS := u.cfg.ASN
	if u.cfg.FedVia != "" {
		// Federated upstream: cfg.ASN describes the real peer at the far
		// exchange, but the wire session is iBGP with the remote mux's
		// federation agent.
		peerAS = s.cfg.ASN
	}
	return bgp.Config{
		LocalAS:  s.cfg.ASN,
		LocalID:  s.cfg.RouterID,
		PeerAS:   peerAS,
		Clock:    s.clk,
		Metrics:  s.metrics.bgp,
		Intern:   s.intern,
		Describe: fmt.Sprintf("%s-up-%s", s.cfg.Site, u.cfg.Name),
	}
}

// AttachUpstream runs the BGP session with upstream u over conn. The
// session is not supervised: if it dies it stays down (but its routes
// are still retained stale for the restart window). Prefer
// AttachUpstreamSupervised for transports that can be redialed.
func (s *Server) AttachUpstream(u *Upstream, conn net.Conn) *bgp.Session {
	sess := bgp.New(conn, s.upstreamSessionConfig(u), &upstreamHandler{u: u})
	u.mu.Lock()
	u.sess = sess
	u.mu.Unlock()
	go sess.Run()
	return sess
}

// AttachUpstreamSupervised brings up the BGP session with upstream u
// through a supervisor that redials with backoff on failure. On
// re-establishment the server re-announces the routes it was announcing
// on behalf of clients and sends end-of-RIB; routes learned from the
// peer are retained stale in the meantime.
func (s *Server) AttachUpstreamSupervised(u *Upstream, dial func() (net.Conn, error)) *bgp.Supervisor {
	sup := bgp.NewSupervisor(bgp.SupervisorConfig{
		Session: s.upstreamSessionConfig(u),
		Dial:    dial,
		Backoff: s.cfg.Reconnect,
	}, &upstreamHandler{u: u})
	u.mu.Lock()
	u.sup = sup
	u.mu.Unlock()
	sup.Start()
	return sup
}

type upstreamHandler struct{ u *Upstream }

func (h *upstreamHandler) Established(sess *bgp.Session) {
	u := h.u
	// Re-announce everything we were advertising on this peering before
	// the restart (including stale adverts: they have not been withdrawn
	// from the world, so the recovered peer must keep hearing them), one
	// run per interned attribute set.
	var runs []wire.Update
	idx := make(map[*wire.Attrs]int)
	u.mu.Lock()
	u.sess = sess
	for p, ad := range u.advertised {
		if _, ok := idx[ad.attrs]; !ok {
			idx[ad.attrs], runs = len(runs), append(runs, wire.Update{Attrs: ad.attrs})
		}
		runs[idx[ad.attrs]].Reach = append(runs[idx[ad.attrs]].Reach, wire.NLRI{Prefix: p})
	}
	u.mu.Unlock()
	// A run that does not encode stays pending. Announcements accepted
	// while the peering was down, pending their first send, converge
	// here once their run went out.
	sent, err := sess.SendRuns(runs, nil)
	now := u.srv.clk.Now()
	u.mu.Lock()
	for i, r := range runs {
		if !sent[i] {
			continue
		}
		for _, n := range r.Reach {
			if ad := u.advertised[n.Prefix]; ad != nil && ad.pending && ad.attrs == r.Attrs {
				ad.pending = false
				u.srv.metrics.convergence.Observe(now.Sub(ad.announced).Seconds())
			}
		}
	}
	u.mu.Unlock()
	if err != nil {
		return // the session died mid-replay; the next Established retries
	}
	// End-of-RIB: tells a graceful-restart peer our replay is complete.
	sess.Send(&wire.Update{})
}

func (h *upstreamHandler) UpdateReceived(sess *bgp.Session, upd *wire.Update) {
	h.u.srv.handleUpstreamUpdates(h.u, sess, []*wire.Update{upd})
}

// UpdateBatchReceived implements bgp.BatchHandler: on transports that
// report buffered bytes, the session reader hands over every UPDATE
// already in flight as one slice, and the whole run enters the sharded
// ingest as one op per shard instead of one per message.
func (h *upstreamHandler) UpdateBatchReceived(sess *bgp.Session, upds []*wire.Update) {
	h.u.srv.handleUpstreamUpdates(h.u, sess, upds)
}

func (h *upstreamHandler) Closed(_ *bgp.Session, err error) {
	h.u.srv.handleUpstreamDown(h.u, err)
}

// handleUpstreamUpdates relays a peer's routes to every client. The
// server deliberately does NOT run best-path selection: each client
// sees each peer's routes verbatim (§3). Per-message bookkeeping
// (import hook, archive, metrics) runs per UPDATE; the runs
// between End-of-RIB markers then enter the shard workers together —
// they book-keep the Adj-RIB-In (so late-joining clients get a full
// replay) and fan out through the per-client queues, so the reader
// never blocks on a slow client or on another peer's flood. upds is
// the caller's to reuse afterwards; the run is compacted in place.
func (s *Server) handleUpstreamUpdates(u *Upstream, sess *bgp.Session, upds []*wire.Update) {
	n := 0 // upds[:n] is the run not yet dispatched
	for _, upd := range upds {
		if upd.Refresh {
			continue // refresh requests from upstreams are not honored yet
		}
		// The federation import hook runs before anything else sees the
		// update (archive included, so warm restarts rebuild the same
		// post-import table): it strips backhaul-only communities and
		// counts cross-mux import metrics. The session reader delivered
		// canonical attrs; only a set the hook replaced needs interning.
		if u.cfg.Import != nil {
			in := upd.Attrs
			u.cfg.Import(upd)
			if upd.Attrs != in {
				upd.Attrs = s.intern.Intern(upd.Attrs)
			}
		}
		// Archive before interpreting: End-of-RIB markers belong in the
		// trace too (warm restart replays them as harmless no-ops).
		s.archiveUpstream(u, sess, upd)
		if upd.IsEndOfRIB() {
			// The peer finished replaying its table after a restart:
			// every route still stale was not re-announced and must go.
			// The sweep must observe every update before the marker, so
			// dispatch the run first (flushUpstreamStale fences the
			// pipeline itself).
			s.ingest.dispatch(u, sess.PeerAS(), sess.PeerID(), upds[:n])
			n = 0
			s.flushUpstreamStale(u)
			continue
		}
		if upd.Attrs != nil && len(upd.Reach) > 0 {
			s.metrics.routesFromUpstreams.Add(uint64(len(upd.Reach)))
		}
		upds[n] = upd
		n++
	}
	s.ingest.dispatch(u, sess.PeerAS(), sess.PeerID(), upds[:n])
}

// sessionKey maps an upstream to the client-session routing key and
// per-route ADD-PATH ID for the server's mode: Quagga clients hold one
// session per upstream (key = upstream ID), BIRD clients one ADD-PATH
// session (key 0) with the upstream ID carried as the path ID.
func (s *Server) sessionKey(u *Upstream) (skey uint32, pathID wire.PathID) {
	if s.cfg.Mode == muxproto.ModeBIRD {
		return 0, wire.PathID(u.cfg.ID)
	}
	return u.cfg.ID, 0
}

// handleUpstreamDown reacts to the loss of an upstream session. A
// transport failure marks the peer's routes stale for the restart
// window (RFC 4724: keep forwarding while the session recovers); a
// deliberate teardown (our Close or the peer's Cease) withdraws them
// from clients immediately.
func (s *Server) handleUpstreamDown(u *Upstream, err error) {
	// The session is dead, so no new updates are arriving, but its last
	// ones may still sit in the ingest pipeline; fence them through so
	// the stale-mark (or teardown sweep) below sees the complete table.
	s.ingest.barrier()
	retain := err != nil && !bgp.IsPeerCease(err)
	if retain {
		if n := u.adjIn.MarkAllStale(); n > 0 {
			s.metrics.staleRetained.Add(uint64(n))
		}
	} else {
		s.sweepUpstream(u, func(t *rib.AdjRIB) []wire.NLRI {
			t.MarkAllStale() // everything goes: the sweep empties the shard
			return t.SweepStale()
		})
	}
	u.mu.Lock()
	u.sess = nil
	// A restart-window backstop armed by an earlier loss must not
	// outlive the peering it was guarding: after a clean teardown the
	// Adj-RIB-In is empty, and a late firing would wrongly disarm a
	// future window. After Close nobody is left to stop a new one.
	s.setStaleTimerLocked(u, retain && !s.closed.Load())
	u.mu.Unlock()
}

// setStaleTimerLocked stops u's restart-window backstop and, with arm
// set, starts a fresh one. Callers hold u.mu.
func (s *Server) setStaleTimerLocked(u *Upstream, arm bool) {
	if u.staleTimer != nil {
		u.staleTimer.Stop()
		u.staleTimer = nil
	}
	if arm {
		u.staleTimer = s.clk.AfterFunc(s.cfg.RestartWindow, func() { s.flushUpstreamStale(u) })
	}
}

// flushUpstreamStale withdraws from clients every adjIn route still
// stale: graceful restart is over (end-of-RIB arrived or the window
// closed) and the peer did not re-announce them.
func (s *Server) flushUpstreamStale(u *Upstream) {
	// A refresh the peer sent just before End-of-RIB may still be in
	// the ingest pipeline; fence it through before sweeping, or the
	// re-announced route would be flushed as stale.
	s.ingest.barrier()
	swept := s.sweepUpstream(u, (*rib.AdjRIB).SweepStale)
	u.mu.Lock()
	s.setStaleTimerLocked(u, false)
	u.mu.Unlock()
	if swept > 0 {
		s.metrics.staleFlushed.Add(uint64(swept))
	}
}

// sweepUpstream removes from each shard of u's Adj-RIB-In the routes
// take returns and withdraws them from every client: one withdraw-only
// frame per shard (per snapFrameNLRIs routes), shared by all clients,
// enqueued under the same hold of the shard's write lock that removed
// the routes — the ingest workers' contract, so a sweep racing live
// ingest or a joiner's replay can never leave a client holding a route
// the table dropped. It returns how many routes went.
func (s *Server) sweepUpstream(u *Upstream, take func(*rib.AdjRIB) []wire.NLRI) int {
	skey, pathID := s.sessionKey(u)
	total := 0
	for i := 0; i < u.adjIn.Shards(); i++ {
		u.adjIn.Update(i, func(t *rib.AdjRIB) {
			u.replay[i].drop()
			gone := take(t)
			total += len(gone)
			clients := s.clientList()
			if len(clients) == 0 {
				return
			}
			for k := range gone {
				gone[k].ID = pathID
			}
			for len(gone) > 0 {
				n := min(len(gone), snapFrameNLRIs)
				s.broadcast(i, clients, &broadcastFrame{skey: skey, upstream: u.cfg.ID, wd: gone[:n:n]})
				gone = gone[n:]
			}
		})
	}
	return total
}

// clientList returns the connected clients. The returned slice is
// shared and must not be mutated.
func (s *Server) clientList() []*clientConn { return *s.clients.Load() }

// swapClient makes c the registry's entry for account id (nil: no
// entry) and returns the entry it displaced. With only set, nothing
// changes unless the current entry is exactly that connection.
func (s *Server) swapClient(id string, c, only *clientConn) (old *clientConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.clientList()
	next := make([]*clientConn, 0, len(cur)+1)
	for _, x := range cur {
		if x.account.ID == id {
			old = x
		} else {
			next = append(next, x)
		}
	}
	if only != nil && old != only {
		return nil
	}
	if c != nil {
		next = append(next, c)
	}
	s.clients.Store(&next)
	return old
}

// ---------------------------------------------------------------------
// Client side

// RegisterClient records a vetted experiment account. Must precede
// AcceptClient for that ID.
func (s *Server) RegisterClient(acct ClientAccount) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.accounts[acct.ID]; dup {
		return fmt.Errorf("server: client %q already registered", acct.ID)
	}
	if !acct.Federated {
		for _, p := range acct.Allocation {
			if owner, ok := s.owners[p.Masked()]; ok {
				return fmt.Errorf("server: prefix %v already allocated to %q", p, owner)
			}
		}
		for _, p := range acct.Allocation {
			s.owners[p.Masked()] = acct.ID
		}
		s.alloc.Store(trie.NewFlat(maps.All(s.owners)))
	}
	s.accounts[acct.ID] = acct
	return nil
}

// allocatedTo reports whether prefix p falls inside acct's allocation:
// the most specific allocated block that covers p is acct's. Federated
// agents are not in the allocation table (their blocks overlap this
// mux's own clients'), so they are checked by containment: the
// originating mux already vetted the prefix against the real owner.
func (s *Server) allocatedTo(acct ClientAccount, p netip.Prefix) bool {
	if !acct.Federated {
		owned := false
		s.alloc.Load().Supernets(p, func(_ netip.Prefix, owner string) bool {
			owned = owner == acct.ID
			return true
		})
		return owned
	}
	for _, alloc := range acct.Allocation {
		if alloc.Contains(p.Addr()) && alloc.Bits() <= p.Bits() {
			return true
		}
	}
	return false
}

// accountOf returns the registered account for client id.
func (s *Server) accountOf(id string) (ClientAccount, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	acct, ok := s.accounts[id]
	return acct, ok
}

// AcceptClient binds transport conn to the registered account id: it
// sends provisioning, starts per-upstream (or ADD-PATH) BGP sessions,
// and wires the packet tunnel into the server's data plane. A client
// that is already connected is superseded: its old transport is torn
// down and its announced routes are retained stale so the fresh
// connection can reclaim them without churning the upstreams.
func (s *Server) AcceptClient(id string, conn net.Conn) error {
	acct, ok := s.accountOf(id)
	if !ok {
		return fmt.Errorf("server: unknown client %q (experiments must be vetted first)", id)
	}
	old := s.swapClient(id, nil, nil)
	upstreams := s.Upstreams()
	if old != nil {
		old.stopSupervisors()
		old.mux.Close()
		s.markClientStale(id, nil)
	}

	c := &clientConn{account: acct, sups: make(map[uint32]*bgp.Supervisor)}
	c.out = newOutQueue(s.cfg.Quota.maxQueueOps(), s.shards)
	c.mux = tunnel.NewMux(conn, nil)
	s.swapClient(id, c, nil)

	// The fan-out worker drains c.out for the life of the transport and
	// reaps the client's state when it dies.
	go s.runFanout(c)

	// The handshake (provisioning, client ack, session bring-up) runs
	// asynchronously: the client may not even be connected yet, and a
	// server must never block its accept path on one client.
	go s.clientHandshake(c, upstreams)
	return nil
}

// clientHandshake provisions a newly accepted client and brings up its
// data and control channels.
func (s *Server) clientHandshake(c *clientConn, upstreams []*Upstream) {
	id := c.account.ID
	acct := c.account
	ctrl := c.mux.Open(muxproto.StreamControl)
	// The client may send packets as soon as it has read provisioning,
	// and the mux discards frames for streams nobody opened: open the
	// packet channel first, so early packets queue on the stream until
	// NewPacketTunnel adopts it below.
	c.mux.Open(tunnel.PacketChannel)
	prov := &muxproto.Provisioning{
		Site:         s.cfg.Site,
		ASN:          s.cfg.ASN,
		Mode:         s.cfg.Mode,
		Allocation:   acct.Allocation,
		SpoofAllowed: acct.SpoofAllowed,
	}
	for _, u := range upstreams {
		prov.Upstreams = append(prov.Upstreams, muxproto.UpstreamInfo{
			ID: u.cfg.ID, ASN: u.cfg.ASN, Name: u.cfg.Name,
			PeerAddr: u.cfg.PeerAddr, Transit: u.cfg.Transit, Via: u.cfg.FedVia,
		})
	}
	if err := muxproto.WriteProvisioning(ctrl, prov); err != nil {
		c.mux.Close()
		return
	}
	// Await the client's ack so its stream acceptor is ready before
	// BGP OPENs start arriving.
	ackBuf := make([]byte, 3)
	if _, err := ctrl.Read(ackBuf); err != nil {
		c.mux.Close()
		return
	}

	// Data-plane wiring: a link between the server router and a node
	// that forwards into the tunnel.
	te := &tunnelEndpoint{srv: s, c: c}
	_, svIface, tunIface := dataplane.Connect(s.dp, netip.Addr{}, "tun-"+id, te, acct.TunnelAddr, "srv")
	s.dp.AddIface(svIface)
	c.tunIface = tunIface
	for _, p := range acct.Allocation {
		s.dp.SetRoute(p, acct.TunnelAddr, svIface)
	}
	c.pkt = tunnel.NewPacketTunnel(c.mux, func(pkt *dataplane.Packet) {
		s.handleClientPacket(c, pkt)
	})

	// BGP sessions, each under a supervisor: a session that dies while
	// the tunnel survives (e.g. hold-timer expiry during congestion) is
	// redialed on a fresh stream with backoff.
	startSup := func(key, streamID uint32, scfg bgp.Config, h bgp.Handler) {
		sup := bgp.NewSupervisor(bgp.SupervisorConfig{
			Session: scfg,
			Dial: func() (net.Conn, error) {
				select {
				case <-c.mux.Done():
					return nil, fmt.Errorf("server: client %s transport closed", id)
				default:
					return c.mux.Open(streamID), nil
				}
			},
			Backoff: s.cfg.Reconnect,
		}, h)
		c.mu.Lock()
		c.sups[key] = sup
		c.mu.Unlock()
		sup.Start()
	}
	if s.cfg.Mode == muxproto.ModeBIRD {
		startSup(0, muxproto.StreamBGPBase, bgp.Config{
			LocalAS: s.cfg.ASN, LocalID: s.cfg.RouterID, Clock: s.clk,
			AddPath:  true,
			Metrics:  s.metrics.bgp,
			Describe: fmt.Sprintf("%s-cl-%s", s.cfg.Site, id),
		}, &clientSessHandler{srv: s, c: c})
	} else {
		for _, u := range upstreams {
			startSup(u.cfg.ID, muxproto.StreamBGPBase+u.cfg.ID, bgp.Config{
				LocalAS: s.cfg.ASN, LocalID: s.cfg.RouterID, Clock: s.clk,
				Metrics:  s.metrics.bgp,
				Describe: fmt.Sprintf("%s-cl-%s-up-%s", s.cfg.Site, id, u.cfg.Name),
			}, &clientSessHandler{srv: s, c: c, upstream: u})
		}
	}
}

// ClientCount reports connected clients.
func (s *Server) ClientCount() int { return len(s.clientList()) }

// QueueDepths reports each connected client's fan-out queue depth
// (routes plus end-of-RIB markers not yet flushed) — the live
// backpressure view behind GET /stats. It reads atomics only, so stats
// pollers never stall client admission or the relay path.
func (s *Server) QueueDepths() map[string]int {
	out := make(map[string]int)
	for _, c := range s.clientList() {
		out[c.account.ID] = c.out.depth()
	}
	return out
}

// detachClient reaps a client whose transport died without a BGP-level
// goodbye. Upstream sessions stay up (§3: stability across experiment
// churn), and — new with graceful restart — the client's announcements
// are retained stale for the restart window so a quick reconnect does
// not churn the upstreams. A client that closed cleanly (Cease) has
// already been withdrawn by the session handler, so this finds nothing
// left to retain.
func (s *Server) detachClient(c *clientConn) {
	id := c.account.ID
	if s.swapClient(id, nil, c) != c {
		return // superseded by a newer connection, or already detached
	}
	c.drainSupervisors()
	s.markClientStale(id, nil)
}

// markClientStale flags every advert owned by client id as stale and
// arms the restart-window backstop. only limits the marking to one
// upstream (Quagga-mode session loss); nil means all upstreams.
func (s *Server) markClientStale(id string, only *Upstream) {
	n := 0
	for _, u := range s.upstreamsOr(only) {
		u.mu.Lock()
		for _, ad := range u.advertised {
			if ad.owner == id && !ad.stale {
				ad.stale = true
				n++
			}
		}
		u.mu.Unlock()
	}
	if n == 0 {
		return
	}
	s.metrics.staleRetained.Add(uint64(n))
	s.mu.Lock()
	if _, armed := s.restartTimers[id]; !armed && !s.closed.Load() {
		// Off the callback: the withdrawals are written to upstream
		// sessions, and a timer callback never writes to a transport.
		s.restartTimers[id] = s.clk.AfterFunc(s.cfg.RestartWindow, func() {
			go s.dropClientAdverts(id, nil, true)
		})
	}
	s.mu.Unlock()
}

// dropClientAdverts withdraws client id's adverts from upstreams (only,
// or all of them when only is nil). With staleOnly the client's restart
// is over — it sent end-of-RIB, or the window closed — and what goes is
// what it did not re-announce. Without, it said goodbye with a Cease or
// was torn down: everything goes, there is no restart to wait for.
func (s *Server) dropClientAdverts(id string, only *Upstream, staleOnly bool) {
	total := 0
	for _, u := range s.upstreamsOr(only) {
		var wd []wire.NLRI
		u.mu.Lock()
		for p, ad := range u.advertised {
			if ad.owner == id && (ad.stale || !staleOnly) {
				wd = append(wd, wire.NLRI{Prefix: p})
				u.delAdvertLocked(p)
			}
		}
		sess := u.sess
		u.mu.Unlock()
		total += len(wd)
		if len(wd) > 0 && sess != nil {
			sess.SendRuns([]wire.Update{{Withdrawn: wd}}, nil)
		}
	}
	if !staleOnly {
		return
	}
	s.metrics.staleFlushed.Add(uint64(total))
	// Disarm the backstop once nothing stale remains for this client
	// (with only set, another upstream may still hold some).
	for _, u := range s.Upstreams() {
		u.mu.RLock()
		for _, ad := range u.advertised {
			if ad.owner == id && ad.stale {
				u.mu.RUnlock()
				return
			}
		}
		u.mu.RUnlock()
	}
	s.mu.Lock()
	if t := s.restartTimers[id]; t != nil {
		t.Stop()
		delete(s.restartTimers, id)
	}
	s.mu.Unlock()
}

// ---------------------------------------------------------------------
// Data plane

// tunnelEndpoint adapts a client's packet tunnel to a dataplane node:
// packets routed at the server toward the client's allocation exit here
// and enter the tunnel.
type tunnelEndpoint struct {
	srv *Server
	c   *clientConn
}

// Name implements dataplane.Node.
func (t *tunnelEndpoint) Name() string { return "tunnel-" + t.c.account.ID }

// Receive implements dataplane.Node: server → client direction.
func (t *tunnelEndpoint) Receive(pkt *dataplane.Packet, _ *dataplane.Iface) {
	if t.c.pkt == nil {
		return
	}
	if err := t.c.pkt.Send(pkt); err == nil {
		t.srv.metrics.packetsToClients.Inc()
	}
}

// handleClientPacket is the client → Internet direction: spoof-filter
// against the allocation table, then forward through the server's FIB.
func (s *Server) handleClientPacket(c *clientConn, pkt *dataplane.Packet) {
	if !c.account.SpoofAllowed {
		if _, owner, ok := s.alloc.Load().Lookup(pkt.Src); !ok || owner != c.account.ID {
			s.metrics.spoofsBlocked.Inc()
			return
		}
	}
	s.metrics.packetsFromClients.Inc()
	s.dp.Receive(pkt, c.tunIface.Link().Peer(c.tunIface))
}

// Close tears down all sessions, supervisors, restart timers, and
// client transports.
func (s *Server) Close() {
	s.closed.Store(true)
	clients := s.clientList()
	ups := s.Upstreams()
	s.mu.Lock()
	timers := s.restartTimers
	s.restartTimers = make(map[string]clock.Timer)
	s.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	for _, c := range clients {
		c.stopSupervisors()
		c.mux.Close()
	}
	for _, u := range ups {
		u.mu.Lock()
		sup := u.sup
		sess := u.sess
		s.setStaleTimerLocked(u, false)
		u.mu.Unlock()
		if sup != nil {
			sup.Stop()
		} else if sess != nil {
			sess.Close()
		}
	}
	// Last: the ingest workers drain what the dying sessions already
	// delivered, then exit. Any straggler barrier (a Closed handler
	// racing us) unblocks immediately against the stopped pool.
	s.ingest.close()
}
