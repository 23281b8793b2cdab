package dataplane

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
)

// countNode is an egress that counts what arrives.
type countNode struct{ n atomic.Uint64 }

func (c *countNode) Name() string            { return "count" }
func (c *countNode) Receive(*Packet, *Iface) { c.n.Add(1) }

// forwardRig is a router between one ingress and one counting egress.
// The router's own interfaces are unnumbered, so it has no address to
// source ICMP errors from and every packet ends in exactly one counter.
type forwardRig struct {
	r       *Router
	ingress *Iface // the router's side of the link packets arrive on
	egress  *Iface // the router's side of the link toward out
	out     *countNode
}

func newForwardRig() *forwardRig {
	f := &forwardRig{r: NewRouter("r"), out: &countNode{}}
	_, f.ingress, _ = Connect(f.r, netip.Addr{}, "in", &countNode{}, addr("10.0.0.2"), "eth0")
	_, f.egress, _ = Connect(f.r, netip.Addr{}, "out", f.out, addr("192.0.2.2"), "eth0")
	f.r.AddIface(f.ingress)
	f.r.AddIface(f.egress)
	f.r.SetRoute(prefix("172.16.0.0/12"), netip.Addr{}, f.ingress) // the senders: passes strict uRPF
	f.r.SetRoute(prefix("198.51.100.0/24"), addr("192.0.2.2"), f.egress)
	return f
}

// Forwarding a packet — processors, uRPF, local test, FIB lookup, TTL,
// counters, link, trace — allocates nothing when the caller reuses the
// packet, as a tunnel's reader does.
func TestForwardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	f := newForwardRig()
	f.r.AddProcessor(func(*Packet, *Iface) Verdict { return VerdictContinue })
	f.r.SetURPF(f.ingress, true)
	f.r.AddLocal(addr("203.0.113.1"))
	pkt := NewPacket(addr("172.16.1.1"), addr("198.51.100.7"), ProtoUDP)
	forward := func() {
		pkt.TTL, pkt.Trace = DefaultTTL, pkt.Trace[:0]
		f.r.Receive(pkt, f.ingress)
	}
	forward() // sizes Trace
	if n := testing.AllocsPerRun(1000, forward); n != 0 {
		t.Fatalf("forwarding allocates %.2f times per packet, want 0", n)
	}
	if got, st := f.out.n.Load(), f.r.Stats(); got != 1002 || st.Forwarded != got {
		t.Fatalf("egress saw %d packets, stats %+v", got, st)
	}
}

// Forwarding takes no lock that a control change holds for long, and
// loses no count to one: four goroutines forward while a fifth rewrites
// routes, processors, uRPF and local addresses under them. Every packet
// must end in exactly one counter. Run with -race.
func TestForwardDuringControlChanges(t *testing.T) {
	const senders, perSender = 4, 5000
	f := newForwardRig()
	flap := prefix("198.51.100.128/25")
	stop := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.r.DelRoute(prefix("198.51.100.0/24"))
			f.r.SetRoute(flap, netip.Addr{}, f.egress)
			f.r.SetRoute(prefix("198.51.100.0/24"), netip.Addr{}, f.egress)
			f.r.DelRoute(flap)
			f.r.SetURPF(f.ingress, i%2 == 0)
			f.r.AddLocal(netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}))
			if i < 32 { // each one costs every later packet a call
				drop := uint16(i)
				f.r.AddProcessor(func(p *Packet, _ *Iface) Verdict {
					if p.DstPort == drop {
						return VerdictDrop
					}
					return VerdictContinue
				})
			}
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pkt := &Packet{Proto: ProtoUDP}
			for i := 0; i < perSender; i++ {
				pkt.ID = uint64(s*perSender + i)
				pkt.Src = addr("172.16.1.1")
				if i%7 == 0 {
					pkt.Src = addr("8.8.8.8") // fails uRPF whenever it is on
				}
				pkt.Dst = netip.AddrFrom4([4]byte{198, 51, byte(100 + i%2), byte(i)}) // odd i: no route
				pkt.DstPort = uint16(i % 64)
				pkt.TTL = uint8(1 + i%3) // 1 expires
				pkt.Trace = pkt.Trace[:0]
				f.r.Receive(pkt, f.ingress)
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	mutator.Wait()

	st := f.r.Stats()
	sum := st.Forwarded + st.NoRoute + st.TTLExpired + st.URPFDropped + st.ProcDropped + st.DeliveredLocal
	if sum != senders*perSender {
		t.Fatalf("counters sum to %d, %d packets were sent: %+v", sum, senders*perSender, st)
	}
	if st.Forwarded != f.out.n.Load() {
		t.Fatalf("Forwarded = %d, egress saw %d", st.Forwarded, f.out.n.Load())
	}
	for name, n := range map[string]uint64{"Forwarded": st.Forwarded, "NoRoute": st.NoRoute, "TTLExpired": st.TTLExpired} {
		if n == 0 {
			t.Errorf("%s = 0: the test no longer reaches that outcome", name)
		}
	}
}

// Setters publish a new control snapshot; one taken before is unchanged.
func TestControlSnapshotIsCopyOnWrite(t *testing.T) {
	f := newForwardRig()
	before := f.r.ctl.Load()
	nIfaces, nLocal := len(before.ifaces), len(before.local)
	f.r.AddLocal(addr("203.0.113.1"))
	f.r.SetURPF(f.ingress, true)
	f.r.AddProcessor(func(*Packet, *Iface) Verdict { return VerdictDrop })
	_, extra, _ := Connect(f.r, addr("203.0.113.9"), "x", &countNode{}, addr("203.0.113.10"), "y")
	f.r.AddIface(extra)
	if len(before.ifaces) != nIfaces || len(before.local) != nLocal || len(before.urpf) != 0 || len(before.processors) != 0 {
		t.Fatalf("a published snapshot was edited in place: %+v", before)
	}
	now := f.r.ctl.Load()
	if len(now.ifaces) != nIfaces+1 || !now.local[addr("203.0.113.1")] || !now.local[addr("203.0.113.9")] || !now.urpf[f.ingress] || len(now.processors) != 1 {
		t.Fatalf("setters lost an edit: %+v", now)
	}
}
