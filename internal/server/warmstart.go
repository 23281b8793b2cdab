package server

// Server-side MRT archival and warm restart. With an archive attached,
// every UPDATE an upstream sends is appended as a BGP4MP_ET record and
// each segment seal dumps a TABLE_DUMP_V2 snapshot of all Adj-RIB-Ins.
// After a crash, WarmRestore feeds the newest snapshot plus the update
// tail through the ingest pool — the one writer of an Adj-RIB-In, so
// what comes off disk is vetted by the loaded safety filter like any
// live UPDATE — before the real sessions return, and reconnecting
// clients converge from disk immediately. Everything restored is
// marked stale under RFC 4724 semantics: the recovered
// peer's replay refreshes what still exists, and End-of-RIB (or the
// restart window) sweeps the routes the world dropped while the server
// was dead — no full re-announce, only the diff.

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strings"

	"peering/internal/bgp"
	"peering/internal/mrt"
	"peering/internal/rib"
	"peering/internal/wire"
)

// AttachArchive routes every upstream UPDATE into arch and hooks its
// rotations to dump Adj-RIB-In snapshots. Attach before upstream
// sessions come up to capture a complete trace; WarmRestore reads the
// same directory back after a crash.
func (s *Server) AttachArchive(arch *mrt.Archive) {
	s.arch.Store(arch)
	arch.SetOnRotate(func(string, uint64) { s.dumpArchiveSnapshot() })
}

// archiveUpstream appends one upstream UPDATE to the attached archive
// (a no-op without one). The message is re-encoded on the session's
// negotiated options, so the archived bytes match the wire.
func (s *Server) archiveUpstream(u *Upstream, sess *bgp.Session, upd *wire.Update) {
	arch := s.arch.Load()
	if arch == nil {
		return
	}
	opts := sess.Options()
	msg, err := wire.Marshal(upd, opts)
	if err != nil {
		return
	}
	m := &mrt.BGP4MP{
		PeerAS:  sess.PeerAS(),
		LocalAS: s.cfg.ASN,
		PeerIP:  u.cfg.PeerAddr,
		LocalIP: archiveLocalIP(u),
		Message: msg,
		AS4:     opts.AS4,
		AddPath: opts.AddPath,
	}
	rec, err := m.Record(s.clk.Now(), true)
	if err != nil {
		return
	}
	arch.WriteRecord(rec)
}

// archiveLocalIP picks the server-side address for a BGP4MP record,
// which requires both endpoints in the same family.
func archiveLocalIP(u *Upstream) netip.Addr {
	if u.cfg.LocalAddr.IsValid() && u.cfg.LocalAddr.Is4() == u.cfg.PeerAddr.Is4() {
		return u.cfg.LocalAddr
	}
	if u.cfg.PeerAddr.Is6() {
		return netip.IPv6Loopback()
	}
	return netip.AddrFrom4([4]byte{127, 0, 0, 1})
}

// dumpArchiveSnapshot writes every upstream's Adj-RIB-In beside the
// archive's segments as rib-<time>-<seq>.mrt; it runs on each segment
// seal, so the newest snapshot plus the later segments always
// reconstruct the present.
func (s *Server) dumpArchiveSnapshot() {
	arch := s.arch.Load()
	if arch == nil {
		return
	}
	// Updates archived into the sealed segment may still be in the
	// ingest pipeline; fence them into the tables so the snapshot
	// covers everything the segments it supersedes contained.
	s.ingest.barrier()

	// Peer table: one entry per upstream with a usable address.
	pi := &mrt.PeerIndex{CollectorID: snapshotID(s.cfg.RouterID), ViewName: s.cfg.Site}
	var ups []*Upstream
	index := map[*Upstream]uint16{}
	for _, u := range s.Upstreams() {
		if !u.cfg.PeerAddr.IsValid() {
			continue
		}
		index[u] = uint16(len(ups))
		ups = append(ups, u)
		pi.Peers = append(pi.Peers, mrt.Peer{
			BGPID: snapshotID(u.peerID()), Addr: u.cfg.PeerAddr, AS: u.peerAS(),
		})
	}
	now := s.clk.Now()
	head, err := pi.Record(now)
	if err != nil {
		return
	}
	records := []*mrt.Record{head}

	seq := uint32(0)
	var slots []rib.Slot
	for _, u := range ups {
		idx := index[u]
		// Shard by shard: ingest waits for a copy of the slots, not for
		// the encoder, and the transient is one shard at 40 B a route.
		for i := 0; i < u.adjIn.Shards(); i++ {
			u.adjIn.ReadShard(i, func(_ uint64, t *rib.AdjRIB) { slots = t.AppendSlots(slots[:0]) })
			for _, sl := range slots {
				n := sl.NLRI()
				r := &mrt.RIB{
					Sequence: seq, Prefix: n.Prefix, AddPath: n.ID != 0,
					Entries: []mrt.RIBEntry{{
						PeerIndex: idx, Originated: sl.Learned(), PathID: n.ID, Attrs: sl.Attrs,
					}},
				}
				rec, err := r.Record(now)
				if err != nil {
					continue
				}
				records = append(records, rec)
				seq++
			}
		}
	}

	name := fmt.Sprintf("rib-%s-%04d.mrt", now.UTC().Format("20060102T150405Z"), s.archSnapSeq.Add(1))
	mrt.WriteFile(filepath.Join(arch.Dir(), name), records, arch.Metrics())
}

// snapshotID coerces an address into the IPv4 identifier the
// TABLE_DUMP_V2 peer table requires.
func snapshotID(a netip.Addr) netip.Addr {
	if a.Is4() {
		return a
	}
	return netip.AddrFrom4([4]byte{0, 0, 0, 1})
}

// peerID returns the upstream's live BGP identifier, if any.
func (u *Upstream) peerID() netip.Addr {
	u.mu.RLock()
	defer u.mu.RUnlock()
	if u.sess != nil {
		return u.sess.PeerID()
	}
	return netip.Addr{}
}

// peerAS returns the best-known AS of the upstream.
func (u *Upstream) peerAS() uint32 {
	u.mu.RLock()
	defer u.mu.RUnlock()
	if u.sess != nil {
		if as := u.sess.PeerAS(); as != 0 {
			return as
		}
	}
	return u.cfg.ASN
}

// WarmRestoreStats summarizes one WarmRestore run.
type WarmRestoreStats struct {
	// Snapshot is the rib-*.mrt file the restore seeded from ("" when
	// the directory held none).
	Snapshot string
	// SnapshotRoutes counts routes read from the snapshot; TailSegments
	// and TailUpdates count the updates-*.mrt segments and the UPDATEs
	// replayed on top of it — all offered to the safety filter first.
	SnapshotRoutes int
	TailSegments   int
	TailUpdates    int
	// Skipped counts records passed over: other record types, peers
	// matching no registered upstream, and malformed records (also
	// counted on peering_mrt_decode_errors_total).
	Skipped int
	// Restored is the total Adj-RIB-In population after the restore —
	// every one of these routes is marked stale awaiting the live
	// peer's replay.
	Restored int
}

// WarmRestore rebuilds the Adj-RIB-Ins from the MRT archive directory:
// the lexically newest rib-*.mrt snapshot seeds the tables, the
// updates-*.mrt segments stamped at or after it replay the tail, and
// everything restored is marked stale with the restart window armed
// (RFC 4724). Call after AddUpstream (and LoadPolicy: the archive holds
// what the peers sent, not what the filter let through, so the restore
// re-vets every route under the rules in force now) but before
// attaching live upstream sessions: snapshot entries are matched to
// upstreams by peer address. A truncated tail — the expected shape
// after kill -9 — ends that segment's replay without error.
func (s *Server) WarmRestore(dir string) (WarmRestoreStats, error) {
	var st WarmRestoreStats
	entries, err := os.ReadDir(dir)
	if err != nil {
		return st, fmt.Errorf("server: warm restore: %w", err)
	}
	var snaps, segs []string
	for _, e := range entries { // ReadDir sorts by name; stamps sort with it
		name := e.Name()
		if !strings.HasSuffix(name, ".mrt") {
			continue
		}
		switch {
		case strings.HasPrefix(name, "rib-"):
			snaps = append(snaps, name)
		case strings.HasPrefix(name, "updates-"):
			segs = append(segs, name)
		}
	}
	if len(snaps) > 0 {
		st.Snapshot = snaps[len(snaps)-1]
	}

	byAddr := map[netip.Addr]*Upstream{}
	for _, u := range s.Upstreams() {
		if u.cfg.PeerAddr.IsValid() {
			byAddr[u.cfg.PeerAddr] = u
		}
	}

	if st.Snapshot != "" {
		if err := s.restoreSnapshot(filepath.Join(dir, st.Snapshot), byAddr, &st); err != nil {
			return st, err
		}
	}
	snapStamp := segmentStamp(st.Snapshot)
	for _, name := range segs {
		if snapStamp != "" && segmentStamp(name) < snapStamp {
			continue // fully represented by the snapshot
		}
		st.TailSegments++
		s.replayTailSegment(filepath.Join(dir, name), byAddr, &st)
	}

	// RFC 4724: everything restored is a guess about the present. Once
	// the workers have installed it all, mark it stale and arm the
	// restart window; the live peer's replay refreshes survivors and
	// End-of-RIB sweeps the rest.
	s.ingest.barrier()
	for _, u := range s.Upstreams() {
		n := u.adjIn.MarkAllStale()
		st.Restored += u.adjIn.Len()
		if n > 0 {
			u.mu.Lock()
			s.setStaleTimerLocked(u, true)
			u.mu.Unlock()
			s.metrics.staleRetained.Add(uint64(n))
		}
	}
	return st, nil
}

// restoreSnapshot dispatches one TABLE_DUMP_V2 snapshot, an
// announcement per RIB entry, to the upstreams its peer table matches.
// A truncated snapshot (crash mid-dump) keeps what was readable.
func (s *Server) restoreSnapshot(path string, byAddr map[netip.Addr]*Upstream, st *WarmRestoreStats) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("server: warm restore: %w", err)
	}
	defer f.Close()
	r := mrt.NewReader(f)
	if arch := s.arch.Load(); arch != nil {
		r.Instrument(arch.Metrics())
	}
	head, err := r.Next()
	if err != nil {
		return fmt.Errorf("server: warm restore: snapshot %s: %w", path, err)
	}
	pi, err := mrt.ParsePeerIndex(head)
	if err != nil {
		return fmt.Errorf("server: warm restore: snapshot %s: %w", path, err)
	}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, mrt.ErrBadRecord) {
			st.Skipped++
			continue
		}
		if err != nil {
			break // truncated dump: keep what loaded
		}
		rr, err := mrt.ParseRIB(rec)
		if err != nil {
			st.Skipped++
			continue
		}
		for _, e := range rr.Entries {
			if int(e.PeerIndex) >= len(pi.Peers) || byAddr[pi.Peers[e.PeerIndex].Addr] == nil {
				st.Skipped++
				continue
			}
			peer := pi.Peers[e.PeerIndex]
			s.ingest.dispatch(byAddr[peer.Addr], peer.AS, peer.BGPID, []*wire.Update{{
				Attrs: s.intern.Intern(e.Attrs),
				Reach: []wire.NLRI{{Prefix: rr.Prefix}},
			}})
			st.SnapshotRoutes++
		}
	}
	return nil
}

// replayTailSegment dispatches one updates-*.mrt segment in archive
// order, so the newest state wins. Decoded updates arrive in batched
// runs (mrt.ReplayBatched); each stretch of one peer's consecutive
// updates is one dispatch — one op per touched shard, like a batched
// session read. Malformed records are skipped (the MRT length field
// keeps the stream aligned); truncation — the live segment the crashed
// process never sealed — ends the replay with everything before it
// already dispatched.
func (s *Server) replayTailSegment(path string, byAddr map[netip.Addr]*Upstream, st *WarmRestoreStats) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	r := mrt.NewReader(f)
	var met *mrt.Metrics
	if arch := s.arch.Load(); arch != nil {
		met = arch.Metrics()
	}
	rst, _ := mrt.ReplayBatched(r, mrt.ReplayConfig{Metrics: met, Intern: s.intern}, 0,
		func(ms []*mrt.BGP4MP, upds []*wire.Update) error {
			for i := 0; i < len(upds); {
				m, j := ms[i], i+1
				for j < len(upds) && ms[j].PeerIP == m.PeerIP && ms[j].PeerAS == m.PeerAS {
					j++
				}
				if u := byAddr[m.PeerIP]; u != nil {
					s.ingest.dispatch(u, m.PeerAS, netip.Addr{}, upds[i:j])
					st.TailUpdates += j - i
				} else {
					st.Skipped += j - i
				}
				i = j
			}
			return nil
		})
	st.Skipped += rst.Skipped
}

// segmentStamp extracts the UTC timestamp token of an archive file name
// (updates-<stamp>-<seq>.mrt or rib-<stamp>-<seq>.mrt), or "".
func segmentStamp(name string) string {
	parts := strings.SplitN(name, "-", 3)
	if len(parts) < 3 {
		return ""
	}
	return parts[1]
}
