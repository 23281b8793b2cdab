package dataplane

import (
	"maps"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"peering/internal/trie"
)

// FIBEntry is one forwarding-table row.
type FIBEntry struct {
	Prefix netip.Prefix
	// NextHop is the gateway address (invalid for directly connected
	// prefixes; informational — forwarding uses Out).
	NextHop netip.Addr
	// Out is the egress interface.
	Out *Iface
}

// Verdict is a packet processor's decision.
type Verdict int

// Verdicts for packet processors.
const (
	// VerdictContinue lets the packet proceed through the pipeline.
	VerdictContinue Verdict = iota
	// VerdictDrop discards the packet.
	VerdictDrop
	// VerdictHandled means the processor consumed (e.g. rewrote and
	// re-sent) the packet; forwarding stops without counting a drop.
	VerdictHandled
)

// Processor is a match-action hook invoked on every packet entering a
// router, before forwarding — the "lightweight packet processing API"
// of §3 (Deploying real services). Processors may mutate the packet.
type Processor func(pkt *Packet, ingress *Iface) Verdict

// RouterStats counts router activity.
type RouterStats struct {
	Forwarded      uint64
	DeliveredLocal uint64
	TTLExpired     uint64
	NoRoute        uint64
	URPFDropped    uint64
	ProcDropped    uint64
	// FIBFreezes counts rebuilds of the FIB's frozen lookup copy.
	FIBFreezes uint64
}

// routerCounters is RouterStats as the forwarding path keeps it: one
// atomic per counter, so counting a packet takes no lock.
type routerCounters struct {
	forwarded      atomic.Uint64
	deliveredLocal atomic.Uint64
	ttlExpired     atomic.Uint64
	noRoute        atomic.Uint64
	urpfDropped    atomic.Uint64
	procDropped    atomic.Uint64
	fibFreezes     atomic.Uint64
}

// routerControl is the router's rarely-changing control state. A
// published value is immutable: the forwarding path loads it with one
// atomic read per packet, and every setter replaces it with an edited
// copy (Router.updateControl).
type routerControl struct {
	ifaces     []*Iface
	local      map[netip.Addr]bool
	urpf       map[*Iface]bool
	processors []Processor
}

// Router is an IP forwarding node: FIB longest-prefix matching, TTL and
// ICMP handling, optional strict uRPF per interface, and a processor
// pipeline.
//
// Forwarding takes no lock while the FIB is quiet: counters are
// atomics, control state is an immutable snapshot, and lookups read a
// frozen copy of the FIB (trie.Flat) through an atomic pointer.
//
// Routes are installed one at a time and a copy per SetRoute would be
// O(table), so a write does not rebuild the copy: it edits the trie
// under fibMu and drops the copy, and lookups read-lock the trie until
// the copy is worth making again. That is once they number an eighth of
// the table since the last write — a freeze costs a tenth to a quarter
// of a trie lookup per route, so by then the trie has cost about as much
// as the rebuild it put off. Whatever the interleaving of writes and
// lookups, the total stays within about 2.8 times the best offline
// choice (DESIGN.md §16b): a bulk load freezes nothing until traffic
// arrives, a three-route FIB re-freezes on the first lookup after a
// write.
type Router struct {
	name string

	ctl   atomic.Pointer[routerControl]
	ctlMu sync.Mutex // serialises updateControl

	fibMu sync.RWMutex
	fib   *trie.Trie[*FIBEntry]
	// flat is fib frozen, nil while the trie has changes it lacks. It
	// is set with fibMu read-locked and cleared with it write-locked, so
	// a published copy always equals the trie.
	flat atomic.Pointer[trie.Flat[*FIBEntry]]
	// stale counts the lookups the trie has served since the last write.
	stale    atomic.Int64
	freezing sync.Mutex // held by the one lookup that rebuilds flat

	stats routerCounters
}

// NewRouter returns an empty router named name.
func NewRouter(name string) *Router {
	r := &Router{name: name, fib: trie.New[*FIBEntry]()}
	r.ctl.Store(&routerControl{local: map[netip.Addr]bool{}, urpf: map[*Iface]bool{}})
	return r
}

// Name implements Node.
func (r *Router) Name() string { return r.name }

// updateControl publishes a copy of the control state edited by edit.
// The copy is deep, so edit may append to the slices and assign into
// the maps freely.
func (r *Router) updateControl(edit func(*routerControl)) {
	r.ctlMu.Lock()
	defer r.ctlMu.Unlock()
	old := r.ctl.Load()
	next := &routerControl{
		ifaces:     slices.Clone(old.ifaces),
		local:      maps.Clone(old.local),
		urpf:       maps.Clone(old.urpf),
		processors: slices.Clone(old.processors),
	}
	edit(next)
	r.ctl.Store(next)
}

// AddIface registers an interface created by Connect as belonging to
// this router, making its address local.
func (r *Router) AddIface(i *Iface) {
	r.updateControl(func(c *routerControl) {
		c.ifaces = append(c.ifaces, i)
		if i.Addr.IsValid() {
			c.local[i.Addr] = true
		}
	})
}

// Ifaces returns the registered interfaces.
func (r *Router) Ifaces() []*Iface {
	return slices.Clone(r.ctl.Load().ifaces)
}

// AddLocal marks addr as locally delivered (loopbacks, service VIPs).
func (r *Router) AddLocal(addr netip.Addr) {
	r.updateControl(func(c *routerControl) { c.local[addr] = true })
}

// SetURPF enables strict unicast reverse-path filtering on iface:
// packets whose source would not be routed back out the same interface
// are dropped. This is how PEERING servers stop clients from spoofing.
func (r *Router) SetURPF(iface *Iface, on bool) {
	r.updateControl(func(c *routerControl) { c.urpf[iface] = on })
}

// AddProcessor appends p to the packet pipeline.
func (r *Router) AddProcessor(p Processor) {
	r.updateControl(func(c *routerControl) { c.processors = append(c.processors, p) })
}

// SetRoute installs (or replaces) a FIB entry. A LookupRoute that
// starts after SetRoute returns sees it.
func (r *Router) SetRoute(p netip.Prefix, nh netip.Addr, out *Iface) {
	r.fibMu.Lock()
	defer r.fibMu.Unlock()
	r.fib.Insert(p, &FIBEntry{Prefix: p, NextHop: nh, Out: out})
	r.fibChanged()
}

// DelRoute removes the FIB entry for p.
func (r *Router) DelRoute(p netip.Prefix) {
	r.fibMu.Lock()
	defer r.fibMu.Unlock()
	r.fib.Delete(p)
	r.fibChanged()
}

// fibChanged retires the frozen copy. Callers hold fibMu for writing.
func (r *Router) fibChanged() {
	r.flat.Store(nil)
	r.stale.Store(0)
}

// LookupRoute returns the FIB entry that would forward traffic to addr
// (nil if none).
func (r *Router) LookupRoute(addr netip.Addr) *FIBEntry {
	if f := r.flat.Load(); f != nil {
		_, e, _ := f.Lookup(addr)
		return e
	}
	r.fibMu.RLock()
	_, e, _ := r.fib.Lookup(addr)
	due := r.stale.Add(1) > int64(r.fib.Len()/8)
	r.fibMu.RUnlock()
	if due && r.freezing.TryLock() {
		r.fibMu.RLock()
		if r.flat.Load() == nil {
			r.flat.Store(r.fib.Freeze())
			r.stats.fibFreezes.Add(1)
		}
		r.fibMu.RUnlock()
		r.freezing.Unlock()
	}
	return e
}

// FIBLen reports the number of FIB entries.
func (r *Router) FIBLen() int {
	r.fibMu.RLock()
	defer r.fibMu.RUnlock()
	return r.fib.Len()
}

// Stats returns a snapshot of the router's counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Forwarded:      r.stats.forwarded.Load(),
		DeliveredLocal: r.stats.deliveredLocal.Load(),
		TTLExpired:     r.stats.ttlExpired.Load(),
		NoRoute:        r.stats.noRoute.Load(),
		URPFDropped:    r.stats.urpfDropped.Load(),
		ProcDropped:    r.stats.procDropped.Load(),
		FIBFreezes:     r.stats.fibFreezes.Load(),
	}
}

// Receive implements Node.
func (r *Router) Receive(pkt *Packet, ingress *Iface) {
	ctl := r.ctl.Load()

	for _, p := range ctl.processors {
		switch p(pkt, ingress) {
		case VerdictDrop:
			r.stats.procDropped.Add(1)
			return
		case VerdictHandled:
			return
		}
	}

	if ingress != nil && ctl.urpf[ingress] && !r.urpfPass(pkt.Src, ingress) {
		r.stats.urpfDropped.Add(1)
		return
	}

	// After the processors: they may have rewritten Dst.
	if ctl.local[pkt.Dst] {
		r.deliverLocal(pkt)
		return
	}

	r.Forward(pkt, ingress)
}

// urpfPass applies strict uRPF: the route back to src must leave via
// ingress.
func (r *Router) urpfPass(src netip.Addr, ingress *Iface) bool {
	e := r.LookupRoute(src)
	return e != nil && e.Out == ingress
}

// Forward routes pkt out of the router, handling TTL and ICMP errors.
// ingress may be nil for locally originated packets.
func (r *Router) Forward(pkt *Packet, ingress *Iface) {
	if pkt.TTL <= 1 {
		r.stats.ttlExpired.Add(1)
		r.sendICMP(pkt, ingress, ICMPTimeExceeded)
		return
	}
	pkt.TTL--
	e := r.LookupRoute(pkt.Dst)
	if e == nil {
		r.stats.noRoute.Add(1)
		r.sendICMP(pkt, ingress, ICMPUnreachable)
		return
	}
	r.stats.forwarded.Add(1)
	e.Out.Send(pkt)
}

// Originate sends a locally generated packet through the FIB.
func (r *Router) Originate(pkt *Packet) {
	e := r.LookupRoute(pkt.Dst)
	if e == nil {
		r.stats.noRoute.Add(1)
		return
	}
	r.stats.forwarded.Add(1)
	e.Out.Send(pkt)
}

// deliverLocal handles packets addressed to the router itself: an ICMP
// echo request is answered, anything else ends here.
func (r *Router) deliverLocal(pkt *Packet) {
	r.stats.deliveredLocal.Add(1)
	if pkt.Proto != ProtoICMP || pkt.ICMP != ICMPEchoRequest {
		return
	}
	r.Originate(&Packet{
		ID:    packetSeq.Add(1),
		Src:   pkt.Dst,
		Dst:   pkt.Src,
		TTL:   DefaultTTL,
		Proto: ProtoICMP,
		ICMP:  ICMPEchoReply,
		Seq:   pkt.Seq,
		Orig:  pkt.ID,
	})
}

// sendICMP emits an ICMP error back toward pkt.Src, sourced from the
// ingress interface address (traceroute reads this as the hop address).
func (r *Router) sendICMP(pkt *Packet, ingress *Iface, typ ICMPType) {
	if pkt.Proto == ProtoICMP && pkt.ICMP != ICMPEchoRequest && pkt.ICMP != ICMPNone {
		return // never ICMP about ICMP errors
	}
	src := netip.Addr{}
	if ingress != nil && ingress.Addr.IsValid() {
		src = ingress.Addr
	} else {
		for _, i := range r.ctl.Load().ifaces {
			if i.Addr.IsValid() {
				src = i.Addr
				break
			}
		}
	}
	if !src.IsValid() {
		return
	}
	icmp := &Packet{
		ID:    packetSeq.Add(1),
		Src:   src,
		Dst:   pkt.Src,
		TTL:   DefaultTTL,
		Proto: ProtoICMP,
		ICMP:  typ,
		Seq:   pkt.Seq,
		Orig:  pkt.ID,
	}
	r.Originate(icmp)
}
