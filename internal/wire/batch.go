package wire

import "peering/internal/bufpool"

// AttrGroup is a run of announced NLRIs sharing one attribute set — the
// pre-grouped input PackGrouped consumes.
type AttrGroup struct {
	Attrs *Attrs
	NLRIs []NLRI
}

// maxBodyBudget is the room an UPDATE body has for withdrawn routes,
// path attributes, and NLRI combined: MaxMsgLen minus the header and
// the two 2-byte length fields.
const maxBodyBudget = MaxMsgLen - HeaderLen - 4

// nlriWireLen returns the encoded size of one NLRI under opt.
func nlriWireLen(n NLRI, opt Options) int {
	l := 1 + (n.Prefix.Bits()+7)/8
	if opt.AddPath {
		l += 4
	}
	return l
}

// nlriFit returns how many leading entries of ns fit in budget bytes,
// always admitting the first entry so an oversized NLRI surfaces as an
// encode error instead of an infinite loop.
func nlriFit(ns []NLRI, budget int, opt Options) int {
	n := 0
	for n < len(ns) {
		l := nlriWireLen(ns[n], opt)
		if l > budget && n > 0 {
			break
		}
		budget -= l
		n++
	}
	return n
}

// PackGrouped packs withdrawals and pre-grouped announcements into as
// few UPDATE messages as MaxMsgLen allows: each group rides in one
// message, split only when its NLRI would overflow the 4096-byte frame.
// Withdrawals come first (in their own messages), then one run of
// messages per group in input order.
//
// The produced updates ALIAS their inputs: Withdrawn and Reach are
// subslices of withdrawn and of the groups' NLRI slices, and Attrs
// pointers are shared. Callers must not mutate or recycle any of these
// until the updates have been fully consumed (for session fan-out,
// until Send has returned), and must treat Attrs as immutable — the
// same pointer may sit in the Adj-RIB-In and in every client's queue.
//
// Groups with equal-content attrs behind distinct pointers are merged
// by canonical hash + Equal, so packing density never depends on
// whether the caller interns. Each distinct attribute set is marshaled
// once — into a pooled scratch buffer — to learn its per-message cost;
// attrs that fail to encode are kept unmerged, so only the UPDATEs that
// carry them fail to encode (Send refuses each, and the session stays
// up) instead of poisoning a mergeable group.
func PackGrouped(withdrawn []NLRI, groups []AttrGroup, opt Options) []*Update {
	var out []*Update
	for len(withdrawn) > 0 {
		n := nlriFit(withdrawn, maxBodyBudget, opt)
		out = append(out, &Update{Withdrawn: withdrawn[:n:n]})
		withdrawn = withdrawn[n:]
	}
	if len(groups) == 0 {
		return out
	}

	// Measure each distinct attribute set once; merge duplicate groups
	// (by pointer, then canonical hash + Equal) into the first-seen one.
	// A group fed by a single input run — the whole of interned relay
	// traffic — aliases that run's slice; only a cross-pointer merge
	// (cold, non-interned callers) copies, so the merged NLRIs can ride
	// in shared messages.
	type g struct {
		attrsLen int
		nlris    []NLRI
		owned    bool // nlris is a private copy, safe to append to
	}
	byPtr := make(map[*Attrs]*g, len(groups))
	byHash := make(map[uint64][]*Attrs, len(groups))
	order := make([]*Attrs, 0, len(groups))
	scratch := bufpool.Get(0)
	for _, in := range groups {
		if in.Attrs == nil || len(in.NLRIs) == 0 {
			continue // announcements require attributes; nothing to relay
		}
		e := byPtr[in.Attrs]
		if e == nil {
			h := in.Attrs.canonicalHash()
			for _, cand := range byHash[h] {
				if ce := byPtr[cand]; ce.attrsLen >= 0 && cand.Equal(in.Attrs) {
					e = ce
					break
				}
			}
			if e == nil {
				attrsLen := -1
				if b, err := in.Attrs.appendMarshal(scratch[:0], opt); err == nil {
					attrsLen = len(b)
					scratch = b // keep any growth for later groups
				}
				e = &g{attrsLen: attrsLen}
				byHash[h] = append(byHash[h], in.Attrs)
				order = append(order, in.Attrs)
			}
			byPtr[in.Attrs] = e
		}
		switch {
		case e.nlris == nil:
			e.nlris = in.NLRIs
		case !e.owned:
			merged := make([]NLRI, 0, len(e.nlris)+len(in.NLRIs))
			merged = append(append(merged, e.nlris...), in.NLRIs...)
			e.nlris, e.owned = merged, true
		default:
			e.nlris = append(e.nlris, in.NLRIs...)
		}
	}
	bufpool.Put(scratch)

	for _, attrs := range order {
		e := byPtr[attrs]
		budget := maxBodyBudget
		if e.attrsLen > 0 {
			budget -= e.attrsLen
		}
		nlris := e.nlris
		for len(nlris) > 0 {
			n := nlriFit(nlris, budget, opt)
			out = append(out, &Update{Attrs: attrs, Reach: nlris[:n:n]})
			nlris = nlris[n:]
		}
	}
	return out
}

// AppendRun encodes withdrawals and one run of announcements that share
// a single attribute set — what vetting one client UPDATE for one
// upstream yields — as UPDATE messages appended to b, and reports how
// many it wrote. It emits what PackGrouped would for the same input
// (withdrawals first, in their own messages, then the run, split only
// where MaxMsgLen forces it) without PackGrouped's merge machinery or
// anything allocated: there is nothing to merge, so no map, no hash, no
// arena, and no *Update outlives the call. The attribute set is
// measured only when the run has more than one NLRI; a lone NLRI rides
// in one message whatever its attributes cost. On error out is nil.
func AppendRun(b []byte, withdrawn []NLRI, attrs *Attrs, reach []NLRI, opt Options) (out []byte, msgs int, err error) {
	for len(withdrawn) > 0 {
		n := nlriFit(withdrawn, maxBodyBudget, opt)
		if b, err = appendUpdate(b, &Update{Withdrawn: withdrawn[:n]}, opt); err != nil {
			return nil, 0, err
		}
		msgs++
		withdrawn = withdrawn[n:]
	}
	if attrs == nil {
		return b, msgs, nil // announcements require attributes; nothing to relay
	}
	budget := maxBodyBudget
	if len(reach) > 1 {
		// Measured in b's own spare room, then cut back off.
		if m, err := attrs.appendMarshal(b, opt); err == nil {
			budget -= len(m) - len(b)
			b = m[:len(b)]
		}
	}
	for len(reach) > 0 {
		n := nlriFit(reach, budget, opt)
		if b, err = appendUpdate(b, &Update{Attrs: attrs, Reach: reach[:n]}, opt); err != nil {
			return nil, 0, err
		}
		msgs++
		reach = reach[n:]
	}
	return b, msgs, nil
}

// AppendGroups encodes withdrawals and pre-grouped announcements as the
// UPDATE messages PackGrouped would pack them into, appended to b, and
// appends each message's NLRI count to counts. It does not merge: give
// it one group per attribute set (interned sets are). A message that
// does not encode — its attributes do not fit beside an NLRI — is left
// out and the rest are kept. Like AppendRun, it builds no *Update that
// outlives the call, and allocates nothing while b and counts have room.
func AppendGroups(b []byte, withdrawn []NLRI, groups []AttrGroup, opt Options, counts []int) ([]byte, []int) {
	put := func(u *Update) {
		if out, err := appendUpdate(b, u, opt); err == nil {
			b, counts = out, append(counts, len(u.Withdrawn)+len(u.Reach))
		}
	}
	for len(withdrawn) > 0 {
		n := nlriFit(withdrawn, maxBodyBudget, opt)
		put(&Update{Withdrawn: withdrawn[:n]})
		withdrawn = withdrawn[n:]
	}
	for _, g := range groups {
		if g.Attrs == nil {
			continue // announcements require attributes; nothing to relay
		}
		budget := maxBodyBudget
		if len(g.NLRIs) > 1 { // a lone NLRI rides in one message anyway
			if m, err := g.Attrs.appendMarshal(b, opt); err == nil {
				budget -= len(m) - len(b) // measured in b's spare room
				b = m[:len(b)]
			}
		}
		for reach := g.NLRIs; len(reach) > 0; {
			n := nlriFit(reach, budget, opt)
			put(&Update{Attrs: g.Attrs, Reach: reach[:n]})
			reach = reach[n:]
		}
	}
	return b, counts
}
