package dataplane

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"
)

// Node is anything that can receive packets from a link.
type Node interface {
	// Receive handles pkt arriving on iface. The packet and its Payload
	// are valid only until Receive returns — senders such as a tunnel's
	// reader decode the next packet into the same memory — so an
	// implementation that keeps the packet keeps pkt.Clone().
	Receive(pkt *Packet, iface *Iface)
	// Name labels the node for diagnostics.
	Name() string
}

// Iface is one attachment point of a node to a link.
type Iface struct {
	// Addr is the interface's address (may be invalid for unnumbered).
	Addr netip.Addr
	// Label names the interface ("eth0", "ams-ix").
	Label string

	node Node
	link *Link
}

// Node returns the owning node.
func (i *Iface) Node() Node { return i.node }

// Link returns the attached link (nil if detached).
func (i *Iface) Link() *Link { return i.link }

// Send transmits pkt out this interface.
func (i *Iface) Send(pkt *Packet) {
	if i.link != nil {
		i.link.transmit(pkt, i)
	}
}

func (i *Iface) String() string {
	return fmt.Sprintf("%s/%s(%s)", i.node.Name(), i.Label, i.Addr)
}

// Link is a point-to-point connection between two interfaces with
// optional latency (recorded, not slept), loss, and MTU. Delivery is
// synchronous: the receiving node's Receive runs on the sender's
// goroutine, which keeps million-packet simulations fast and
// deterministic.
type Link struct {
	a, b *Iface
	// Latency is the one-way propagation delay credited to packets
	// crossing this link (accumulated in Network.PathLatency
	// bookkeeping, not slept).
	Latency time.Duration
	// LossProb in [0,1] drops packets at random.
	LossProb float64
	// MTU drops packets with larger payloads (0 = unlimited).
	MTU int
	// Down severs the link without detaching it — the failure switch
	// used by LIFEGUARD-style experiments.
	Down bool

	mu    sync.Mutex
	rng   *rand.Rand
	stats LinkStats
}

// LinkStats counts link activity.
type LinkStats struct {
	Forwarded uint64
	Dropped   uint64
}

// Connect attaches two (node, addr, label) endpoints with a new link.
func Connect(an Node, aAddr netip.Addr, aLabel string, bn Node, bAddr netip.Addr, bLabel string) (*Link, *Iface, *Iface) {
	l := &Link{rng: rand.New(rand.NewSource(int64(packetSeq.Add(1))))}
	ia := &Iface{Addr: aAddr, Label: aLabel, node: an, link: l}
	ib := &Iface{Addr: bAddr, Label: bLabel, node: bn, link: l}
	l.a, l.b = ia, ib
	return l, ia, ib
}

// Stats returns a snapshot of link counters.
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// SetDown marks the link failed (or restored).
func (l *Link) SetDown(down bool) {
	l.mu.Lock()
	l.Down = down
	l.mu.Unlock()
}

// Peer returns the interface opposite from.
func (l *Link) Peer(from *Iface) *Iface {
	if from == l.a {
		return l.b
	}
	return l.a
}

// transmit carries pkt from the sending interface to the other side.
func (l *Link) transmit(pkt *Packet, from *Iface) {
	l.mu.Lock()
	if l.Down ||
		(l.MTU > 0 && len(pkt.Payload) > l.MTU) ||
		(l.LossProb > 0 && l.rng.Float64() < l.LossProb) {
		l.stats.Dropped++
		l.mu.Unlock()
		return
	}
	l.stats.Forwarded++
	l.mu.Unlock()
	to := l.Peer(from)
	if to.Addr.IsValid() {
		pkt.Trace = append(pkt.Trace, to.Addr)
	}
	to.node.Receive(pkt, to)
}
