package main

// announce_vetting: the other direction, and the paper's §3 safety
// interposition. Four real client.Clients announce and withdraw /24s of
// their allocations through a BIRD-mode mux to two upstream peers; the
// compiled policy is loaded and one operation in five is a bad
// announcement the mux must stop (a prefix outside the allocation, a
// protected AS in the path, a foreign origin). The fan-out queue is
// idle: the path is handleClientUpdateBIRD → VerdictPath → allocation
// and origin checks → dampening → clone/strip/intern → upstream send.

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"peering/bench/sink"
	"peering/internal/client"
	"peering/internal/muxproto"
	"peering/internal/policy/compiled"
	"peering/internal/server"
	"peering/internal/wire"
)

const (
	announceClients   = 4
	announceUpstreams = 2
	// Each client owns a /6: 262144 /24s, more than any run announces
	// (every /24 is used once, so dampening never suppresses). The top
	// /10 of each allocation is kept for the probes.
	announceAllocBits = 6
	announceFirstByte = 32
	// announceWindow bounds the events in flight. The tunnel's stream
	// buffers without limit, so clients that never waited would measure
	// how fast memory fills, not how fast the mux vets.
	announceWindow = 4096
	// announceBurst is the number of announce/withdraw pairs each client
	// makes in one repetition.
	announceBurst = 4096
	// announceProbeBase is the first /24 of an allocation's top quarter.
	announceProbeBase = 3 << (24 - announceAllocBits - 2)
)

// announceVariant is one shape of announcement a client makes.
type announceVariant struct {
	opts client.AnnounceOptions
	// hash[i] is the attribute hash upstream i+1 must receive.
	hash [announceUpstreams]uint64
}

type announceInputs struct {
	rig      *rig
	speakers []*sink.Speaker
	clients  []*client.Client
	allocs   []netip.Prefix
	variants []announceVariant
	rules    *compiled.RuleSet
	// cursor is the next /24 index every client announces; probes counts
	// the probe operations made; total is what has been sent so far and
	// what each peer must therefore hold.
	cursor, probes int
	total          announceTally
}

func (in *announceInputs) close() {
	for _, c := range in.clients {
		c.Close()
	}
	in.rig.close() // before the speakers; see joinInputs.close
	for _, sp := range in.speakers {
		sp.Close()
	}
	in.rig, in.clients, in.speakers = nil, nil, nil
}

// syntheticPolicy is compiled/bench_test.go's rule-set shape: prefix
// rules and ROAs over synthetic address space, Peerlock and no-transit
// rules for the protected ASes the bad announcements carry.
func syntheticPolicy(nPrefix, nROA int) *compiled.RuleSet {
	rs := pathRules()
	for i := 0; i < nPrefix; i++ {
		rs.Prefixes = append(rs.Prefixes, compiled.PrefixRule{
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(100 + i%60), byte(i >> 8), byte(i), 0}), 24),
			Le:     32, Permit: i%16 != 0,
		})
	}
	for i := 0; i < nROA; i++ {
		rs.Origins = append(rs.Origins, compiled.OriginRule{
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(176 + i%8), byte(i >> 8), byte(i), 0}), 24),
			MaxLen: 32, Origin: uint32(64500 + i%1000),
		})
	}
	return rs
}

func buildAnnounce(p params) (*announceInputs, error) {
	in := &announceInputs{rules: syntheticPolicy(p.size(policyPrefixRules, 64), p.size(policyROAs, 32))}
	for u := range in.total.models {
		in.total.models[u] = sink.NewTable(sink.Range{})
	}
	in.rig = newRig(server.Config{Mode: muxproto.ModeBIRD, Policy: in.rules}, sink.Range{})
	for id := uint32(1); id <= announceUpstreams; id++ {
		u, err := in.rig.addUpstream(id, 64600+id)
		if err != nil {
			return nil, err
		}
		sp, err := in.rig.speak(u)
		if err != nil {
			return nil, err
		}
		in.speakers = append(in.speakers, sp)
	}
	for k := 0; k < announceClients; k++ {
		alloc := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(announceFirstByte + k<<(8-announceAllocBits)), 0, 0, 0}), announceAllocBits)
		c, err := in.rig.connect(server.ClientAccount{
			ID: fmt.Sprintf("c%d", k), Allocation: []netip.Prefix{alloc},
			TunnelAddr: netip.AddrFrom4([4]byte{10, 251, 0, byte(k + 1)}),
		}, netip.AddrFrom4([4]byte{10, 251, 1, byte(k + 1)}))
		if err != nil {
			return nil, err
		}
		in.clients = append(in.clients, c)
		in.allocs = append(in.allocs, alloc)
	}
	// What the upstream must see for each variant: the mux forces its
	// own ASN to the path head, clears LOCAL_PREF and sets NEXT_HOP to
	// its address on that peering.
	for _, opts := range []client.AnnounceOptions{
		{},
		{Prepend: 1},
		{Prepend: 2, Communities: []wire.Community{wire.MakeCommunity(47065, 100)}},
		{Communities: []wire.Community{wire.MakeCommunity(47065, 200), wire.MakeCommunity(47065, 201)}},
	} {
		v := announceVariant{opts: opts}
		for i, u := range in.rig.ups {
			a := &wire.Attrs{Origin: wire.OriginIGP, NextHop: u.Config().LocalAddr}
			a.PrependAS(testbedASN, 1+opts.Prepend)
			for _, c := range opts.Communities {
				a.AddCommunity(c)
			}
			b, err := wire.MarshalAttrs(a, as4)
			if err != nil {
				return nil, err
			}
			v.hash[i] = sink.HashAttrs(b)
		}
		in.variants = append(in.variants, v)
	}
	return in, nil
}

// slash24 returns the i-th /24 of alloc.
func slash24(alloc netip.Prefix, i int) netip.Prefix {
	a := alloc.Addr().As4()
	base := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8
	base += uint32(i) << 8
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(base >> 24), byte(base >> 16), byte(base >> 8), 0}), 24)
}

// announceTally is what one client goroutine did.
type announceTally struct {
	events            uint64 // legitimate announces + withdrawals
	models            [announceUpstreams]*sink.Table
	hijack, leak, org uint64
}

// drive makes client k announce and then withdraw the /24s numbered
// from..limit-1 of its allocation, with one bad announcement per two
// pairs (20% of operations).
func (in *announceInputs) drive(k int, from, limit int, sent *atomic.Uint64) (announceTally, error) {
	var t announceTally
	for i := range t.models {
		t.models[i] = sink.NewTable(sink.Range{})
	}
	c, alloc := in.clients[k], in.allocs[k]
	foreign := in.allocs[(k+1)%len(in.allocs)]
	for i := from; i < limit; i++ {
		if i%32 == 0 {
			// Closed loop: stay within the window of events the slower
			// upstream peer has not received yet.
			for sent.Load()-in.received() >= announceWindow {
				time.Sleep(20 * time.Microsecond)
			}
		}
		p := slash24(alloc, i)
		v := &in.variants[i%len(in.variants)]
		if err := c.Announce(p, v.opts); err != nil {
			return t, err
		}
		if err := c.Withdraw(p, nil); err != nil {
			return t, err
		}
		t.events += 2
		sent.Add(2)
		for u := range t.models {
			t.models[u].AnnouncePrefix(p, v.hash[u])
			t.models[u].WithdrawPrefix(p)
		}
		if i%2 == 1 {
			continue
		}
		up := uint32(1 + (i/2)%announceUpstreams)
		bad := &wire.Update{Attrs: &wire.Attrs{Origin: wire.OriginIGP, NextHop: netip.AddrFrom4([4]byte{10, 251, 1, 1})}}
		switch (i / 2) % 3 {
		case 0: // another experiment's space
			bad.Attrs.PrependAS(testbedASN, 1)
			bad.Reach = []wire.NLRI{{Prefix: slash24(foreign, i)}}
			t.hijack++
		case 1: // a route leak: a protected AS behind a stub
			bad.Attrs.ASPath = []wire.Segment{{Type: wire.SegSequence, ASNs: []uint32{testbedASN, protectedAS, 64999}}}
			bad.Reach = []wire.NLRI{{Prefix: p}}
			t.leak++
		case 2: // somebody else's origin
			bad.Attrs.ASPath = []wire.Segment{{Type: wire.SegSequence, ASNs: []uint32{testbedASN, 3333}}}
			bad.Reach = []wire.NLRI{{Prefix: p}}
			t.org++
		}
		if err := c.Relay(up, bad); err != nil {
			return t, err
		}
	}
	return t, nil
}

func runAnnounce(p params, res *result) error {
	if p.trace {
		return traceAnnounce(p, res)
	}
	in, setup, err := medianSetup(p, func() (*announceInputs, error) { return buildAnnounce(p) }, (*announceInputs).close)
	if err != nil {
		return err
	}
	res.Metrics["setup_s"] = setup
	res.Info["clients"] = announceClients
	res.Info["upstreams"] = announceUpstreams
	res.Info["policy_prefix_rules"] = float64(len(in.rules.Prefixes))
	res.Info["policy_roas"] = float64(len(in.rules.Origins))

	var lat latencies
	var reps series
	burst := p.size(announceBurst, 64)
	res.Info["pairs_per_client_per_repetition"] = float64(burst)
	// Every /24 is announced once, so the run ends early if it would
	// reach the probes' quarter of the allocations.
	for reps.more(p, 3) && in.cursor+burst <= announceProbeBase {
		events, wall, cpu, err := in.burst(burst, res)
		if err != nil {
			in.close()
			return err
		}
		reps.add(float64(events), float64(events*announceUpstreams), wall, cpu)
		lat.probeFor(probeShare(wall), func() (time.Duration, bool) { return in.probe(res) })
	}
	reps.report(res)
	lat.report(res)
	res.Info["bad_announcements"] = float64(in.total.hijack + in.total.leak + in.total.org)

	st := in.rig.srv.Stats()
	t := &in.total
	res.fail(absDiff(st.HijacksBlocked, t.hijack), "hijacks blocked %d, injected %d", st.HijacksBlocked, t.hijack)
	res.fail(absDiff(st.OriginBlocked, t.org), "foreign origins blocked %d, injected %d", st.OriginBlocked, t.org)
	res.fail(absDiff(st.PolicyRejected, t.leak), "policy rejected %d, leaks injected %d", st.PolicyRejected, t.leak)
	res.fail(st.FlapsSuppressed, "dampening suppressed announcements that flapped once")
	for _, sp := range in.speakers {
		res.fail(sp.Stats().Malformed.Load()+sp.Stats().Notifications.Load(), "an upstream peer could not parse what the mux sent, or was sent a NOTIFICATION")
	}
	vetted := float64(t.models[0].Counts().Announced)
	res.Info["prefixes_vetted"] = vetted
	res.Metrics["heap_bytes_per_route"] = float64(releasedBy(in.close)) / vetted
	return nil
}

// probe has client 0 announce, or the next time withdraw, one fresh /24
// from the reserved top of its allocation, and times it to both peers.
func (in *announceInputs) probe(res *result) (time.Duration, bool) {
	n := in.probes
	in.probes++
	pfx := slash24(in.allocs[0], announceProbeBase+n/2)
	v := &in.variants[(n/2)%len(in.variants)]
	res.Attempted++
	start := time.Now()
	var err error
	if n%2 == 0 {
		err = in.clients[0].Announce(pfx, v.opts)
	} else {
		err = in.clients[0].Withdraw(pfx, nil)
	}
	for u, m := range in.total.models {
		if n%2 == 0 {
			m.AnnouncePrefix(pfx, v.hash[u])
		} else {
			m.WithdrawPrefix(pfx)
		}
	}
	if err == nil {
		err = in.rig.waitWoken(in.peersHold)
	}
	if err != nil {
		res.fail(1, "probe never reached both upstreams: %v", err)
		return 0, false
	}
	return time.Since(start), true
}

// received is the number of legitimate events (announcements and
// withdrawals) the slower upstream peer has seen.
func (in *announceInputs) received() uint64 {
	least := ^uint64(0)
	for _, sp := range in.speakers {
		c := sp.Table().Load()
		least = min(least, c.Announced+c.Withdrawn)
	}
	return least
}

// peersHold reports whether each upstream peer's table equals its
// model.
func (in *announceInputs) peersHold() bool {
	for u, sp := range in.speakers {
		if !sp.Table().Load().Equal(in.total.models[u].Counts()) {
			return false
		}
	}
	return true
}

// burst has every client make n announce/withdraw pairs (with the bad
// announcements mixed in) from where it left off, and waits until both
// peers hold every legitimate event.
func (in *announceInputs) burst(n int, res *result) (events uint64, wall, cpu float64, err error) {
	tallies := make([]announceTally, len(in.clients))
	errs := make([]error, len(in.clients))
	sent := in.received()
	var inFlight atomic.Uint64
	inFlight.Store(sent)
	w := openWindow()
	var wg sync.WaitGroup
	for k := range in.clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tallies[k], errs[k] = in.drive(k, in.cursor, in.cursor+n, &inFlight)
		}(k)
	}
	wg.Wait()
	in.cursor += n
	for k, t := range tallies {
		if errs[k] != nil {
			return 0, 0, 0, errs[k]
		}
		events += t.events
		in.total.events += t.events
		in.total.hijack += t.hijack
		in.total.leak += t.leak
		in.total.org += t.org
		for u := range in.total.models {
			in.total.models[u].Merge(t.models[u])
		}
		res.Attempted += t.events + t.hijack + t.leak + t.org
	}
	if err := waitUntil(200*time.Microsecond, in.peersHold); err != nil {
		for u, sp := range in.speakers {
			got, want := sp.Table().Load(), in.total.models[u].Counts()
			res.fail(max(1, absDiff(got.Announced, want.Announced)+absDiff(got.Withdrawn, want.Withdrawn)),
				"upstream %d holds %+v, want %+v", u+1, got, want)
		}
	}
	wall, cpu = w.close()
	return events, wall, cpu, nil
}
