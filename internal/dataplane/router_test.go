package dataplane

import (
	"fmt"
	"math/rand"
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
	// All but the first packet took the frozen FIB, not the trie.
	if st := f.r.Stats(); st.FIBFreezes != 1 || f.r.flat.Load() == nil {
		t.Fatalf("FIB frozen %d times, copy published: %v; want once, by the first packet", st.FIBFreezes, f.r.flat.Load() != nil)
	}
}

// Forwarding takes no lock that a control change holds for long, and
// loses no count to one: four goroutines forward while a fifth rewrites
// routes, processors, uRPF and local addresses under them. Every packet
// must end in exactly one counter, and a route nobody touches must
// resolve on every lookup, whether the frozen FIB or the trie answers
// it. Run with -race.
func TestForwardDuringControlChanges(t *testing.T) {
	const senders, perSender = 4, 5000
	f := newForwardRig()
	// Enough routes that the trie serves a run of lookups after each
	// write before the copy is rebuilt: both paths carry traffic.
	for i := 0; i < 256; i++ {
		f.r.SetRoute(netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(i), 0}), 24), netip.Addr{}, f.egress)
	}
	steady := addr("100.64.77.1")
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
				if e := f.r.LookupRoute(steady); e == nil || e.Out != f.egress {
					t.Errorf("untouched route resolved to %+v during FIB writes", e)
					return
				}
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
	for name, n := range map[string]uint64{"Forwarded": st.Forwarded, "NoRoute": st.NoRoute, "TTLExpired": st.TTLExpired, "FIBFreezes": st.FIBFreezes} {
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

// The FIB against a brute-force model, through any interleaving of
// writes and lookups: a lookup after SetRoute or DelRoute returns sees
// it, whether the frozen copy was fresh, stale or being paid off, and
// IPv6 routes resolve beside IPv4 ones.
func TestFIBMatchesModel(t *testing.T) {
	r := NewRouter("r")
	rng := rand.New(rand.NewSource(3))
	outs := make([]*Iface, 4)
	for i := range outs {
		_, outs[i], _ = Connect(r, netip.Addr{}, fmt.Sprint("if", i), &countNode{}, netip.Addr{}, "eth0")
	}
	randPrefix := func() netip.Prefix {
		if rng.Intn(8) == 0 {
			a := [16]byte{0x20, 0x01, 0x0d, 0xb8, byte(rng.Intn(4)), byte(rng.Intn(4))}
			return netip.PrefixFrom(netip.AddrFrom16(a), 32+8*rng.Intn(3)).Masked()
		}
		a := [4]byte{byte(10 + rng.Intn(2)), byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		return netip.PrefixFrom(netip.AddrFrom4(a), []int{0, 8, 12, 16, 20, 24, 28, 32}[rng.Intn(8)]).Masked()
	}
	randAddr := func() netip.Addr {
		p := randPrefix()
		if rng.Intn(2) == 0 {
			return p.Addr()
		}
		b := p.Addr().AsSlice()
		b[len(b)-1] ^= byte(rng.Intn(256))
		b[len(b)-2] ^= byte(rng.Intn(4))
		a, _ := netip.AddrFromSlice(b)
		return a
	}
	model := map[netip.Prefix]*Iface{}
	check := func(step int, a netip.Addr) {
		t.Helper()
		var want *Iface
		bits := -1
		for p, out := range model {
			if p.Contains(a) && p.Bits() > bits {
				want, bits = out, p.Bits()
			}
		}
		e := r.LookupRoute(a)
		if (e == nil) != (bits < 0) || (e != nil && (e.Out != want || e.Prefix.Bits() != bits)) {
			t.Fatalf("step %d: LookupRoute(%v) = %+v, model says %d-bit route via %v", step, a, e, bits, want)
		}
	}
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 2 || (op < 5 && len(model) < 200):
			p, out := randPrefix(), outs[rng.Intn(len(outs))]
			r.SetRoute(p, netip.Addr{}, out)
			model[p] = out
			check(step, p.Addr())
		case op < 4:
			p := randPrefix()
			for q := range model { // usually one that is there
				if rng.Intn(4) > 0 {
					p = q
				}
				break
			}
			r.DelRoute(p)
			delete(model, p)
			check(step, p.Addr())
		default:
			// A run of lookups, often long enough to pay for a freeze.
			for n := rng.Intn(2 * (1 + len(model)/8)); n >= 0; n-- {
				check(step, randAddr())
			}
		}
		if r.FIBLen() != len(model) {
			t.Fatalf("step %d: FIBLen = %d, model holds %d", step, r.FIBLen(), len(model))
		}
	}
	if st := r.Stats(); st.FIBFreezes == 0 {
		t.Fatal("the frozen FIB never served: the test did not cover it")
	}

	// IPv6 traffic alone pays for a re-freeze, as IPv4 traffic does: the
	// frozen copy serves both families.
	p := netip.MustParsePrefix("2001:db8:ff::/48")
	r.SetRoute(p, netip.Addr{}, outs[0])
	model[p] = outs[0]
	before := r.Stats().FIBFreezes
	for i := 0; i <= r.FIBLen()/8; i++ {
		check(i, netip.MustParseAddr("2001:db8:ff::1"))
	}
	if st := r.Stats(); st.FIBFreezes != before+1 || r.flat.Load() == nil {
		t.Fatalf("%d IPv6 lookups after a write froze the FIB %d times, want once", r.FIBLen()/8+1, st.FIBFreezes-before)
	}
}

// The frozen FIB is rebuilt only when lookups have paid for it: a bulk
// load freezes nothing, and however writes and lookups interleave the
// rebuilds number at most one per Len/8 trie-served lookups, plus one.
func TestFIBFreezeIsPaidFor(t *testing.T) {
	const (
		routes    = 4000
		perFreeze = routes / 8
	)
	f := newForwardRig()
	for i := 0; f.r.FIBLen() < routes; i++ {
		f.r.SetRoute(netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(64 + i>>8), byte(i), 0}), 24), netip.Addr{}, f.egress)
	}
	if n := f.r.Stats().FIBFreezes; n != 0 {
		t.Fatalf("a bulk load of %d routes froze the FIB %d times, want 0", routes, n)
	}
	dst := addr("100.64.9.9")
	lookups := 0
	look := func(n int) {
		for i := 0; i < n; i++ {
			if f.r.LookupRoute(dst) == nil {
				t.Fatal("route lost")
			}
		}
		lookups += n
	}
	look(perFreeze)
	if n := f.r.Stats().FIBFreezes; n != 0 {
		t.Fatalf("%d lookups on a %d-route FIB froze it %d times, want 0 until they exceed %d", perFreeze, routes, n, perFreeze)
	}
	look(1)
	if n := f.r.Stats().FIBFreezes; n != 1 {
		t.Fatalf("FIB frozen %d times after %d lookups, want 1", n, lookups)
	}
	look(10 * perFreeze) // served by the copy: no further rebuild
	if n := f.r.Stats().FIBFreezes; n != 1 {
		t.Fatalf("FIB frozen %d times with no write since the first, want 1", n)
	}
	// Writes interleaved with lookup runs of every length around the
	// threshold: never more rebuilds than the lookups paid for.
	flap := prefix("198.51.100.128/25")
	stale := 0 // lookups the trie served: those after a write, until a freeze
	for i := 0; i < 200; i++ {
		f.r.SetRoute(flap, netip.Addr{}, f.egress)
		f.r.DelRoute(flap)
		n := (i * 37) % (2 * perFreeze)
		before := f.r.Stats().FIBFreezes
		look(n)
		stale += min(n, perFreeze+1)
		if got := f.r.Stats().FIBFreezes - before; got != uint64(n/(perFreeze+1)) {
			t.Fatalf("round %d: %d lookups after a write froze the FIB %d times", i, n, got)
		}
	}
	if n, most := f.r.Stats().FIBFreezes, uint64(1+stale/perFreeze); n > most {
		t.Fatalf("FIB frozen %d times for %d trie-served lookups, want at most %d", n, stale, most)
	}
}
