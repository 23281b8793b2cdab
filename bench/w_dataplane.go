package main

// dataplane_forward: no BGP at all. Four real client.Clients push
// minimum-size packets through their tunnels into the mux's data-plane
// router, which holds a FIB built from a generated table over two
// egress interfaces; 5% of the packets carry a source outside the
// sender's allocation and must be dropped by the spoof filter. The path
// is tunnel.DecodePacket → spoof check → Router.Receive → FIB lookup →
// egress. A route-path change must not move these numbers, and a FIB
// change must move only these.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"peering/bench/sink"
	"peering/internal/client"
	"peering/internal/dataplane"
	"peering/internal/muxproto"
	"peering/internal/server"
)

const (
	dataplaneClients = 4
	dataplaneEgress  = 2
	dataplaneFIB     = 50000
	// dataplaneWindow bounds the packets in flight. The tunnel's stream
	// buffers without limit, so a sender that never waited would measure
	// how fast memory fills, not how fast the router forwards.
	dataplaneWindow = 4096
	// dataplaneBurst is the number of packets each client sends in one
	// repetition.
	dataplaneBurst = 40000
	// spoofMark is the source port the generator stamps on spoofed
	// packets, so an egress node can tell one that got through.
	spoofMark = 0xBAD
)

// egressNode is the far end of one egress interface: it counts what
// arrives and checks each packet against what the generator expected.
type egressNode struct {
	index   uint16
	packets atomic.Uint64
	wrong   atomic.Uint64 // misrouted, spoofed, or TTL not decremented once
	wake    chan<- struct{}
}

func (n *egressNode) Name() string { return fmt.Sprintf("egress%d", n.index) }

func (n *egressNode) Receive(pkt *dataplane.Packet, _ *dataplane.Iface) {
	if pkt.DstPort != n.index || pkt.SrcPort == spoofMark || pkt.TTL != dataplane.DefaultTTL-1 {
		n.wrong.Add(1)
	}
	n.packets.Add(1)
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// destination is one address the generator sends to and the egress
// interface the FIB must pick for it.
type destination struct {
	addr   netip.Addr
	egress uint16
}

type dataplaneInputs struct {
	rig     *rig
	clients []*client.Client
	srcs    []netip.Addr
	nodes   []*egressNode
	dsts    []destination
	fib     int
	// cursor numbers the packets sent in bursts; probes those sent as
	// probes.
	cursor, probes int
}

func (in *dataplaneInputs) close() {
	for _, c := range in.clients {
		c.Close()
	}
	in.rig.close()
	in.rig, in.clients, in.nodes = nil, nil, nil
}

func (in *dataplaneInputs) delivered() (n, wrong uint64) {
	for _, node := range in.nodes {
		n += node.packets.Load()
		wrong += node.wrong.Load()
	}
	return n, wrong
}

func buildDataplane(p params) (*dataplaneInputs, error) {
	tabs, err := genTables(p.seed, p.size(dataplaneFIB, 500), 1)
	if err != nil {
		return nil, err
	}
	in := &dataplaneInputs{rig: newRig(server.Config{Mode: muxproto.ModeQuagga}, sink.Range{}), fib: len(tabs[0].routes)}
	dp := in.rig.srv.DP()
	ifaces := make([]*dataplane.Iface, dataplaneEgress)
	for i := range ifaces {
		node := &egressNode{index: uint16(i), wake: in.rig.wake}
		in.nodes = append(in.nodes, node)
		near := netip.AddrFrom4([4]byte{192, 168, byte(i), 1})
		far := netip.AddrFrom4([4]byte{192, 168, byte(i), 2})
		_, ifaces[i], _ = dataplane.Connect(dp, near, fmt.Sprintf("eg%d", i), node, far, "in")
		dp.AddIface(ifaces[i])
	}
	rng := rand.New(rand.NewSource(p.seed))
	for i, r := range tabs[0].routes {
		e := i % dataplaneEgress
		dp.SetRoute(r.prefix, netip.AddrFrom4([4]byte{192, 168, byte(e), 2}), ifaces[e])
		// One destination per route: a random host inside the prefix.
		a := r.prefix.Addr().As4()
		host := uint32(rng.Intn(1 << (32 - r.prefix.Bits())))
		v := (uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])) + host
		in.dsts = append(in.dsts, destination{netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}), uint16(e)})
	}
	rng.Shuffle(len(in.dsts), func(i, j int) { in.dsts[i], in.dsts[j] = in.dsts[j], in.dsts[i] })
	for k := 0; k < dataplaneClients; k++ {
		c, err := in.rig.connect(server.ClientAccount{
			ID:         fmt.Sprintf("c%d", k),
			Allocation: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{172, byte(20 + k), 0, 0}), 16)},
			TunnelAddr: netip.AddrFrom4([4]byte{10, 252, 0, byte(k + 1)}),
			// The "spoof" fault lifts client 0's source filter, so its
			// spoofed packets reach an egress.
			SpoofAllowed: p.fault == "spoof" && k == 0,
		}, netip.AddrFrom4([4]byte{10, 252, 1, byte(k + 1)}))
		if err != nil {
			return nil, err
		}
		in.clients = append(in.clients, c)
		in.srcs = append(in.srcs, netip.AddrFrom4([4]byte{172, byte(20 + k), 1, 1}))
	}
	// The mux wires a client's packet channel a moment after the client
	// has acknowledged provisioning, and drops packets that arrive
	// before; send until one gets through, so the timed part loses none.
	for k := range in.clients {
		before, _ := in.delivered()
		err := waitUntil(time.Millisecond, func() bool {
			if n, _ := in.delivered(); n > before {
				return true
			}
			return in.clients[k].SendPacket(in.packet(k, 0, false)) != nil
		})
		if n, _ := in.delivered(); err != nil || n == before {
			return nil, fmt.Errorf("client %d's tunnel never forwarded", k)
		}
	}
	// Let the stragglers of that handshake land before anything is
	// counted.
	time.Sleep(5 * time.Millisecond)
	return in, nil
}

// packet builds client k's i-th packet: no payload, the expected egress
// in DstPort, and — when spoofed — a source outside the allocation.
func (in *dataplaneInputs) packet(k, i int, spoofed bool) *dataplane.Packet {
	d := in.dsts[(i*dataplaneClients+k)%len(in.dsts)]
	pkt := dataplane.NewPacket(in.srcs[k], d.addr, dataplane.ProtoUDP)
	pkt.DstPort = d.egress
	if spoofed {
		pkt.Src = netip.AddrFrom4([4]byte{198, 51, 100, byte(k + 1)})
		pkt.SrcPort = spoofMark
	}
	return pkt
}

func runDataplane(p params, res *result) error {
	if p.trace {
		return traceDataplane(p, res)
	}
	in, setup, err := medianSetup(p, func() (*dataplaneInputs, error) { return buildDataplane(p) }, (*dataplaneInputs).close)
	if err != nil {
		return err
	}
	res.Metrics["setup_s"] = setup
	res.Info["fib_routes"] = float64(in.fib)
	res.Info["clients"] = dataplaneClients

	bgp0 := bgpMessages(in.rig)
	burst := p.size(dataplaneBurst, 200)
	res.Info["packets_per_client_per_repetition"] = float64(burst)
	var lat latencies
	var reps series
	for reps.more(p, 3) {
		legit, spoofed, wall, cpu, err := in.burst(burst, res)
		if err != nil {
			in.close()
			return err
		}
		// A packet has one destination; spoofed ones have none, so the
		// rate counts what left an egress, and the CPU figure charges
		// the filter's work to the packets that did.
		reps.add(float64(legit), float64(legit), wall, cpu)
		res.Info["packets"] += float64(legit + spoofed)
		res.Info["spoofed"] += float64(spoofed)
		lat.probeFor(probeShare(wall), func() (time.Duration, bool) { return in.probe(res) })
	}
	reps.report(res)
	lat.report(res)

	_, wrong := in.delivered()
	res.fail(wrong, "packets reached the wrong egress, were spoofed, or had the wrong TTL")
	res.fail(uint64(bgpMessages(in.rig)-bgp0), "BGP messages moved during a data-plane-only workload")
	res.Metrics["heap_bytes_per_route"] = float64(releasedBy(in.close)) / float64(in.fib)
	return nil
}

// probe sends one packet and times it to its egress.
func (in *dataplaneInputs) probe(res *result) (time.Duration, bool) {
	before, _ := in.delivered()
	res.Attempted++
	in.probes++
	k := in.probes % dataplaneClients
	start := time.Now()
	err := in.clients[k].SendPacket(in.packet(k, in.probes, false))
	if err == nil {
		err = in.rig.waitWoken(func() bool { got, _ := in.delivered(); return got > before })
	}
	if err != nil {
		res.fail(1, "probe packet never left: %v", err)
		return 0, false
	}
	return time.Since(start), true
}

// burst has every client send n packets, one in twenty spoofed, keeping
// at most dataplaneWindow in flight, and waits for the last legitimate
// one to leave.
func (in *dataplaneInputs) burst(n int, res *result) (legit, spoofed uint64, wall, cpu float64, err error) {
	startDelivered, _ := in.delivered()
	blocked0 := in.rig.srv.Stats().SpoofsBlocked
	counts := make([][2]uint64, len(in.clients))
	errs := make([]error, len(in.clients))
	var sent atomic.Uint64 // legitimate packets handed to the tunnels so far
	w := openWindow()
	var wg sync.WaitGroup
	for k := range in.clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 1; i <= n; i++ {
				if i%64 == 0 {
					// Closed loop: stay within the window of packets not
					// yet seen at an egress.
					for {
						got, _ := in.delivered()
						if sent.Load()-(got-startDelivered) < dataplaneWindow {
							break
						}
						time.Sleep(20 * time.Microsecond)
					}
				}
				spoof := i%20 == 0
				if errs[k] = in.clients[k].SendPacket(in.packet(k, in.cursor+i, spoof)); errs[k] != nil {
					return
				}
				if spoof {
					counts[k][1]++
				} else {
					counts[k][0]++
					sent.Add(1)
				}
			}
		}(k)
	}
	wg.Wait()
	in.cursor += n
	for k := range counts {
		if errs[k] != nil {
			return 0, 0, 0, 0, errs[k]
		}
		legit += counts[k][0]
		spoofed += counts[k][1]
	}
	res.Attempted += legit + spoofed
	if err := waitUntil(200*time.Microsecond, func() bool {
		got, _ := in.delivered()
		return got-startDelivered >= legit && in.rig.srv.Stats().SpoofsBlocked-blocked0 >= spoofed
	}); err != nil {
		res.fail(1, "burst never drained")
	}
	wall, cpu = w.close()
	got, _ := in.delivered()
	res.fail(absDiff(got-startDelivered, legit), "egress saw %d packets, %d legitimate ones were sent", got-startDelivered, legit)
	res.fail(absDiff(in.rig.srv.Stats().SpoofsBlocked-blocked0, spoofed), "spoof filter counted wrong")
	return legit, spoofed, wall, cpu, nil
}

// bgpMessages is the total of the mux's BGP message counters.
func bgpMessages(r *rig) float64 {
	sm := scrape(r.srv.Telemetry())
	return sumSeries(sm, "peering_bgp_messages_in_total") + sumSeries(sm, "peering_bgp_messages_out_total")
}
