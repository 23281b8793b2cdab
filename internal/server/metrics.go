package server

// This file defines the server's instrument set on the unified
// telemetry registry. Event counters are bumped inline at the point
// the event happens (lock-free, no shared stats mutex); "current size"
// readings — connected clients, queue depths, RIB sizes, advert counts
// — are scrape-time funcs that sample live structures, so label sets
// follow client/peer churn without ever leaking a stale series.
//
// Server.Stats() is rebuilt on top of the same registry: the public
// Stats struct survives as the JSON shape of GET /stats, but every
// field is now read from a telemetry instrument.

import (
	"peering/internal/bgp"
	"peering/internal/dampen"
	"peering/internal/policy/compiled"
	"peering/internal/telemetry"
)

// convergenceBuckets span the three regimes an announcement can cross
// before reaching an upstream: sub-millisecond for the synchronous
// relay path, seconds for redial backoff while an upstream session
// recovers, and minutes when the announcement waits out a restart
// window. Measured against the server's injected clock, so virtual-
// clock tests land deterministic observations.
var convergenceBuckets = []float64{0.001, 0.01, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// packingBuckets cover NLRIs-per-UPDATE from unbatched (1) up past the
// practical MaxMsgLen packing ceiling; powers of two match the
// doubling behavior of batch growth.
var packingBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// batchBuckets cover NLRIs-per-ingest-op: reader-side batching caps a
// run at maxReadBatch UPDATEs but each UPDATE can carry many NLRIs,
// and worker-side merging runs to snapFrameNLRIs, so the range extends
// past the packing ceiling.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// serverMetrics holds every instrument the server layer owns, plus the
// shared BGP session metrics it hands to each session config.
type serverMetrics struct {
	reg *telemetry.Registry
	bgp *bgp.Metrics

	// Relay and safety-intervention counters (§3 interposition).
	routesFromUpstreams  *telemetry.Counter
	announcementsRelayed *telemetry.Counter
	hijacksBlocked       *telemetry.Counter
	originBlocked        *telemetry.Counter
	flapsSuppressed      *telemetry.Counter
	spoofsBlocked        *telemetry.Counter
	staleRetained        *telemetry.Counter
	staleFlushed         *telemetry.Counter
	packetsToClients     *telemetry.Counter
	packetsFromClients   *telemetry.Counter

	// Fan-out pipeline counters (see fanout.go).
	fanoutRelayed      *telemetry.Counter
	fanoutUpdates      *telemetry.Counter
	fanoutCoalesced    *telemetry.Counter
	fanoutBackpressure *telemetry.Counter
	fanoutHighWater    *telemetry.Gauge
	fanoutPacked       *telemetry.Histogram

	// Ingest and frame instruments (frame.go, ingest.go).
	// ingestBatchSize records folded entries per ingest op (a lone
	// UPDATE observes 1); the frame counters split flushes between
	// bytes encoded once for several queues and bytes one client alone
	// paid for (a frame built for one queue).
	ingestBatchSize    *telemetry.Histogram
	fanoutFrameShared  *telemetry.Counter
	fanoutFramePrivate *telemetry.Counter

	// Replay snapshots (enqueueReplay): shard replays walked and built
	// from the table, and shard replays served from a slot's frames.
	replayBuilds *telemetry.Counter
	replayHits   *telemetry.Counter

	// Compiled-policy verdict counters (policy/compiled, wired in
	// ingest.go and handleClientUpdate). The CounterVec is the registered
	// family; policyAccepted and policyRejected are its label children,
	// resolved once here so the per-NLRI hot path never touches the
	// vec's label map.
	policyVerdicts       *telemetry.CounterVec
	policyAccepted       *telemetry.Counter
	policyRejected       [compiled.NumClasses]*telemetry.Counter
	policyCompileSeconds *telemetry.Gauge

	// Quota and shedding counters (quota.go): every containment action
	// taken against a client that outgrew its limits.
	quotaWarnings  *telemetry.Counter
	quotaRejected  *telemetry.Counter
	quotaTeardowns *telemetry.Counter
	quotaShed      *telemetry.Counter
	quotaResyncs   *telemetry.Counter

	// convergence measures client-announce → upstream-send latency.
	convergence *telemetry.Histogram

	// dampen is shared by every upstream's damper.
	dampen *dampen.Metrics
}

// newServerMetrics registers the server's metric families on r. The
// scrape-time funcs close over s, so one registry must not be shared
// by two Servers (registration would panic on the duplicate names
// anyway).
func newServerMetrics(r *telemetry.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		reg: r,
		bgp: bgp.NewMetrics(r),

		routesFromUpstreams: r.Counter("peering_server_routes_from_upstreams_total",
			"UPDATE NLRIs received from upstream peers."),
		announcementsRelayed: r.Counter("peering_server_announcements_relayed_total",
			"Client NLRIs accepted by the safety pipeline and sent upstream."),
		hijacksBlocked: r.Counter("peering_server_hijacks_blocked_total",
			"Client announcements outside the client's allocation."),
		originBlocked: r.Counter("peering_server_origin_blocked_total",
			"Client announcements with a disallowed origin AS."),
		flapsSuppressed: r.Counter("peering_server_flaps_suppressed_total",
			"Client announcements dropped by route-flap dampening."),
		spoofsBlocked: r.Counter("peering_server_spoofs_blocked_total",
			"Client packets dropped by the source-address filter."),
		staleRetained: r.Counter("peering_server_stale_routes_retained_total",
			"Routes marked stale instead of withdrawn on session loss."),
		staleFlushed: r.Counter("peering_server_stale_routes_flushed_total",
			"Stale routes withdrawn at end-of-RIB or restart-window close."),
		packetsToClients: r.Counter("peering_server_packets_to_clients_total",
			"Data-plane packets forwarded into client tunnels."),
		packetsFromClients: r.Counter("peering_server_packets_from_clients_total",
			"Data-plane packets accepted from client tunnels."),

		fanoutRelayed: r.Counter("peering_fanout_routes_relayed_total",
			"NLRIs fanned out to clients."),
		fanoutUpdates: r.Counter("peering_fanout_updates_total",
			"UPDATE messages sent to clients by the fan-out pipeline."),
		fanoutCoalesced: r.Counter("peering_fanout_coalesced_total",
			"Operations overwritten by a newer one on the same prefix in an ingest batch's fold, before any client queue saw them (counted once, not per client)."),
		fanoutBackpressure: r.Counter("peering_fanout_backpressure_total",
			"Enqueues that found a client's queue above the high-water mark."),
		fanoutHighWater: r.Gauge("peering_fanout_queue_high_water",
			"Deepest any client's fan-out queue has been, in routes."),
		fanoutPacked: r.Histogram("peering_fanout_update_nlris",
			"NLRIs packed into each UPDATE sent to a client.", packingBuckets),

		ingestBatchSize: r.Histogram("peering_ingest_batch_size",
			"Folded NLRI entries per shard-ingest operation (1 = a lone single-NLRI UPDATE).", batchBuckets),
		fanoutFrameShared: r.Counter("peering_fanout_frames_shared_total",
			"Frame flushes served from bytes encoded once for two or more client queues, or for a replay slot."),
		fanoutFramePrivate: r.Counter("peering_fanout_frames_private_total",
			"Frame flushes whose encoding served this client alone: a frame built for one queue (a shed remainder, a lone client)."),

		replayBuilds: r.Counter("peering_replay_snapshot_builds_total",
			"Shard replays walked, grouped and encoded from the table: the shard was written since its last replay."),
		replayHits: r.Counter("peering_replay_snapshot_hits_total",
			"Shard replays served from the cached snapshot of an unwritten shard (near 0 on a busy mux: writes release the snapshots)."),

		policyVerdicts: r.CounterVec("peering_policy_verdicts_total",
			"Compiled safety-filter verdicts by rule class and outcome (upstream ingest and client vetting).",
			"rule", "outcome"),
		policyCompileSeconds: r.Gauge("peering_policy_compile_seconds",
			"Duration of the most recent rule-set compilation."),

		quotaWarnings: r.Counter("peering_quota_prefix_warnings_total",
			"Clients crossing the max-prefix warn line (once per excursion)."),
		quotaRejected: r.Counter("peering_quota_prefixes_rejected_total",
			"Client announcements rejected at the max-prefix limit."),
		quotaTeardowns: r.Counter("peering_quota_teardowns_total",
			"Clients torn down (Cease/max-prefixes-reached) for quota abuse."),
		quotaShed: r.Counter("peering_quota_fanout_shed_total",
			"Fan-out announcements shed at a lagging client's queue cap."),
		quotaResyncs: r.Counter("peering_quota_resyncs_total",
			"Full-table resyncs performed after fan-out shedding."),

		convergence: r.Histogram("peering_convergence_announce_latency_seconds",
			"Latency from client announcement received to the route's first successful send to an upstream peer, including any redial backoff or restart window the announcement waited out.",
			convergenceBuckets),
	}

	// Resolve the verdict children up front: rejects keyed by the rule
	// class that fired, accepts under rule="none" (an accepted route
	// passed every family, no single rule decided it).
	m.policyAccepted = m.policyVerdicts.With("none", "accept")
	for c := compiled.Class(0); c < compiled.NumClasses; c++ {
		m.policyRejected[c] = m.policyVerdicts.With(c.String(), "reject")
	}
	// One record table per peering; the gauge reads their sum.
	m.dampen = dampen.NewMetrics(r, func() int {
		n := 0
		for _, u := range s.Upstreams() {
			u.mu.RLock()
			n += u.damper.Tracked()
			u.mu.RUnlock()
		}
		return n
	})

	r.GaugeFunc("peering_policy_generation",
		"Load sequence number of the active compiled rule set (0 = unfiltered).",
		func() float64 { return float64(s.policy.Current().Generation()) })
	r.GaugeVecFunc("peering_policy_rules",
		"Active compiled rules per rule class.", []string{"class"},
		func(emit func(v float64, labelValues ...string)) {
			st := s.policy.Current().Status()
			if !st.Enabled {
				return
			}
			emit(float64(st.PrefixRules), "prefix")
			emit(float64(st.OriginRules), "origin")
			emit(float64(st.PeerlockRules), "peerlock")
			emit(float64(st.NoTransitASes), "peerlock_lite")
			emit(float64(st.MetroRules), "metro")
		})
	r.GaugeFunc("peering_fanout_shared_frame_ratio",
		"Fraction of frame flushes served from bytes shared by two or more clients or kept for later joiners (near 1 on a homogeneous mux; 0 when no frames have been flushed).",
		func() float64 {
			shared := m.fanoutFrameShared.Value()
			total := shared + m.fanoutFramePrivate.Value()
			if total == 0 {
				return 0
			}
			return float64(shared) / float64(total)
		})
	r.GaugeFunc("peering_replay_snapshot_bytes",
		"Wire bytes held in cached replay snapshots right now (only shards joined and not written since hold any).",
		func() float64 { return float64(s.replaySnapshotBytes()) })
	r.GaugeFunc("peering_server_clients",
		"Clients currently connected.",
		func() float64 { return float64(s.ClientCount()) })
	r.GaugeFunc("peering_ingest_pending",
		"Upstream update operations queued in the sharded ingest pool.",
		func() float64 { return float64(s.ingest.queued.Load()) })
	r.GaugeFunc("peering_ingest_shards",
		"Prefix-hash shards per Adj-RIB-In (and ingest workers).",
		func() float64 { return float64(s.shards) })
	r.GaugeVecFunc("peering_fanout_queue_depth",
		"Routes queued for fan-out per connected client.", []string{"client"},
		func(emit func(v float64, labelValues ...string)) {
			for id, d := range s.QueueDepths() {
				emit(float64(d), id)
			}
		})
	r.GaugeVecFunc("peering_rib_routes",
		"Adj-RIB-In size per upstream peer.", []string{"peer"},
		func(emit func(v float64, labelValues ...string)) {
			for _, u := range s.Upstreams() {
				emit(float64(u.RoutesIn()), u.cfg.Name)
			}
		})
	r.GaugeVecFunc("peering_rib_adverts",
		"Prefixes currently advertised to upstreams per owning client.", []string{"client"},
		func(emit func(v float64, labelValues ...string)) {
			byOwner := make(map[string]int)
			for _, u := range s.Upstreams() {
				u.mu.RLock()
				for _, ad := range u.advertised {
					byOwner[ad.owner]++
				}
				u.mu.RUnlock()
			}
			for owner, n := range byOwner {
				emit(float64(n), owner)
			}
		})
	return m
}

// policyRejectedTotal sums rejects across rule classes (Stats).
func (m *serverMetrics) policyRejectedTotal() uint64 {
	var n uint64
	for _, c := range m.policyRejected {
		n += c.Value()
	}
	return n
}

// Telemetry returns the server's metric registry — the backing store
// of both GET /stats and GET /metrics.
func (s *Server) Telemetry() *telemetry.Registry { return s.metrics.reg }

// Stats returns a snapshot of counters, read from the telemetry
// registry. The struct is the stable JSON shape of GET /stats; the
// fields are aggregates of the same instruments GET /metrics exposes.
func (s *Server) Stats() Stats {
	m := s.metrics
	return Stats{
		RoutesFromUpstreams:    m.routesFromUpstreams.Value(),
		RoutesRelayedToClients: m.fanoutRelayed.Value(),
		UpdatesToClients:       m.fanoutUpdates.Value(),
		FanoutCoalesced:        m.fanoutCoalesced.Value(),
		FanoutBackpressure:     m.fanoutBackpressure.Value(),
		FanoutQueueHighWater:   uint64(m.fanoutHighWater.Value()),
		AnnouncementsRelayed:   m.announcementsRelayed.Value(),
		HijacksBlocked:         m.hijacksBlocked.Value(),
		OriginBlocked:          m.originBlocked.Value(),
		FlapsSuppressed:        m.flapsSuppressed.Value(),
		SpoofsBlocked:          m.spoofsBlocked.Value(),
		PolicyAccepted:         m.policyAccepted.Value(),
		PolicyRejected:         m.policyRejectedTotal(),
		ReconnectAttempts:      m.bgp.Reconnects.Value(),
		SessionRecoveries:      m.bgp.Recoveries.Value(),
		StaleRoutesRetained:    m.staleRetained.Value(),
		StaleRoutesFlushed:     m.staleFlushed.Value(),
		PacketsToClients:       m.packetsToClients.Value(),
		PacketsFromClients:     m.packetsFromClients.Value(),
		QuotaWarnings:          m.quotaWarnings.Value(),
		QuotaRejected:          m.quotaRejected.Value(),
		QuotaTeardowns:         m.quotaTeardowns.Value(),
		FanoutShed:             m.quotaShed.Value(),
		FanoutResyncs:          m.quotaResyncs.Value(),
		ReplaySnapshotBuilds:   m.replayBuilds.Value(),
		ReplaySnapshotHits:     m.replayHits.Value(),
		ReplaySnapshotBytes:    uint64(s.replaySnapshotBytes()),
	}
}

// ConvergenceSamples reports how many convergence latencies have been
// observed and their sum in seconds (test and debugging hook; the full
// distribution is on /metrics).
func (s *Server) ConvergenceSamples() (count uint64, sumSeconds float64) {
	return s.metrics.convergence.Count(), s.metrics.convergence.Sum()
}
