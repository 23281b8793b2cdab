// Quickstart: bring up a PEERING testbed, provision an experiment,
// connect a client, announce a prefix to the live Internet, watch it
// arrive at a route collector, and exchange traffic with a CDN — the
// §3 architecture end to end.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"peering"
	"peering/internal/internet"
)

func main() {
	fmt.Println("== PEERING quickstart ==")

	// 1. Assemble the testbed: a live mini-Internet, an emulated
	// AMS-IX with a route server, one PEERING server, a collector.
	tb, err := peering.NewTestbed(peering.Config{})
	if err != nil {
		log.Fatalf("testbed: %v", err)
	}
	defer tb.Close()
	if err := tb.WaitReady(30 * time.Second); err != nil {
		log.Fatalf("not ready: %v", err)
	}
	fmt.Printf("testbed up: AS%d, %d live ASes, %d IXP members, %d upstream sessions\n",
		tb.ASN, tb.Internet.Len(), len(tb.Fabric.Members()), len(tb.Server.Upstreams()))

	// 2. Provision an experiment through the portal (account →
	// proposal → advisory-board approval → /24 allocation).
	exp, err := tb.NewExperiment("quick", "quickstart", "hello interdomain world", false)
	if err != nil {
		log.Fatalf("experiment: %v", err)
	}
	prefix := exp.Allocation[0]
	fmt.Printf("experiment approved, allocated %v\n", prefix)

	// 3. Connect the client: one transport, one BGP session per
	// upstream peer, full per-peer route views.
	cl, err := tb.ConnectClient("quickstart")
	if err != nil {
		log.Fatalf("client: %v", err)
	}
	for _, u := range cl.Upstreams() {
		waitRoutes(cl.RouteCount, u.ID)
		fmt.Printf("upstream %d (%s, AS%d): %d routes received\n",
			u.ID, u.Name, u.ASN, cl.RouteCount(u.ID))
	}

	// 4. Announce the prefix everywhere and observe propagation at the
	// collector — a tier-1 vantage on the far side of the Internet.
	if err := cl.Announce(prefix, peering.AnnounceOptions{}); err != nil {
		log.Fatalf("announce: %v", err)
	}
	path := awaitCollector(tb, prefix)
	fmt.Printf("collector sees %v via AS path [%s]\n", prefix, path)

	// 5. Traffic: ping a CDN host on the live Internet from the
	// experiment's address space.
	var cdnASN uint32
	for _, asn := range tb.Internet.ASNs() {
		if tb.Internet.AS(asn).Kind == internet.KindCDN {
			cdnASN = asn
			break
		}
	}
	dst := tb.InternetHost(cdnASN)
	replies := make(chan *peering.Packet, 1)
	cl.OnPacket(func(p *peering.Packet) { replies <- p.Clone() })
	// The CDN needs the return route before replying.
	awaitReturnRoute(tb, cdnASN, prefix)
	pkt := &peering.Packet{Src: prefix.Addr().Next(), Dst: dst, TTL: 64, Proto: 1, ICMP: 8, ID: 1, Seq: 1}
	if err := cl.SendPacket(pkt); err != nil {
		log.Fatalf("send: %v", err)
	}
	select {
	case r := <-replies:
		fmt.Printf("echo reply from %v (%s, AS%d)\n", r.Src, tb.Internet.AS(cdnASN).Name, cdnASN)
	case <-time.After(10 * time.Second):
		log.Fatal("no reply from the live Internet")
	}

	// 6. Withdraw and confirm the Internet forgets us.
	cl.Withdraw(prefix, nil)
	for i := 0; i < 1000; i++ {
		if _, ok := tb.RouteAtCollector(prefix); !ok {
			fmt.Println("withdrawn: collector no longer sees the prefix")
			fmt.Println("quickstart complete")
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatal("withdraw never propagated")
}

func waitRoutes(count func(uint32) int, id uint32) {
	for i := 0; i < 1000 && count(id) == 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
}

func awaitCollector(tb *peering.Testbed, p netip.Prefix) string {
	for i := 0; i < 2000; i++ {
		if path, ok := tb.RouteAtCollector(p); ok {
			return path
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatal("announcement never reached the collector")
	return ""
}

func awaitReturnRoute(tb *peering.Testbed, asn uint32, p netip.Prefix) {
	c := tb.Live.Container(asn)
	for i := 0; i < 2000; i++ {
		if c.BGP.LocRIB().Best(p) != nil && c.DP.LookupRoute(p.Addr()) != nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatal("CDN never learned the return route")
}
