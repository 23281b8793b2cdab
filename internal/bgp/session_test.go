package bgp

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"peering/internal/bufconn"
	"peering/internal/telemetry"
	"peering/internal/wire"
)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// collector accumulates handler events for assertions.
type collector struct {
	mu      sync.Mutex
	est     bool
	updates []*wire.Update
	closed  bool
	err     error
	estCh   chan struct{}
	updCh   chan *wire.Update
	closeCh chan struct{}
}

func newCollector() *collector {
	return &collector{
		estCh:   make(chan struct{}, 1),
		updCh:   make(chan *wire.Update, 64),
		closeCh: make(chan struct{}),
	}
}

func (c *collector) Established(*Session) {
	c.mu.Lock()
	c.est = true
	c.mu.Unlock()
	select {
	case c.estCh <- struct{}{}:
	default:
	}
}

func (c *collector) UpdateReceived(_ *Session, u *wire.Update) {
	c.mu.Lock()
	c.updates = append(c.updates, u)
	c.mu.Unlock()
	c.updCh <- u
}

func (c *collector) Closed(_ *Session, err error) {
	c.mu.Lock()
	c.closed, c.err = true, err
	c.mu.Unlock()
	close(c.closeCh)
}

// pair creates two connected sessions and runs them.
func pair(t *testing.T, ca, cb Config) (*Session, *Session, *collector, *collector) {
	t.Helper()
	connA, connB := bufconn.Pipe()
	ha, hb := newCollector(), newCollector()
	sa, sb := New(connA, ca, ha), New(connB, cb, hb)
	go sa.Run()
	go sb.Run()
	t.Cleanup(func() { sa.Close(); sb.Close() })
	return sa, sb, ha, hb
}

func waitEstablished(t *testing.T, cs ...*collector) {
	t.Helper()
	for _, c := range cs {
		select {
		case <-c.estCh:
		case <-time.After(5 * time.Second):
			t.Fatal("session did not establish")
		}
	}
}

func baseConfigs() (Config, Config) {
	return Config{LocalAS: 47065, LocalID: addr("1.1.1.1"), Describe: "A"},
		Config{LocalAS: 65001, LocalID: addr("2.2.2.2"), Describe: "B"}
}

func TestEstablish(t *testing.T) {
	ca, cb := baseConfigs()
	sa, sb, ha, hb := pair(t, ca, cb)
	waitEstablished(t, ha, hb)
	if sa.State() != StateEstablished || sb.State() != StateEstablished {
		t.Fatalf("states = %v / %v", sa.State(), sb.State())
	}
	if sa.PeerAS() != 65001 || sb.PeerAS() != 47065 {
		t.Fatalf("peer AS = %d / %d", sa.PeerAS(), sb.PeerAS())
	}
	if sa.PeerID() != addr("2.2.2.2") || sb.PeerID() != addr("1.1.1.1") {
		t.Fatalf("peer IDs = %v / %v", sa.PeerID(), sb.PeerID())
	}
}

func TestEstablishWith4ByteASN(t *testing.T) {
	ca, cb := baseConfigs()
	ca.LocalAS = 4200000123
	_, sb, ha, hb := pair(t, ca, cb)
	waitEstablished(t, ha, hb)
	if got := sb.PeerAS(); got != 4200000123 {
		t.Fatalf("peer AS seen = %d, want 4200000123", got)
	}
}

func TestPeerASMismatchRejected(t *testing.T) {
	ca, cb := baseConfigs()
	ca.PeerAS = 99999 // B is 65001
	_, _, ha, hb := pair(t, ca, cb)
	select {
	case <-ha.closeCh:
	case <-time.After(5 * time.Second):
		t.Fatal("mismatched session did not close")
	}
	<-hb.closeCh
	ha.mu.Lock()
	defer ha.mu.Unlock()
	if ha.err == nil {
		t.Fatal("no error on AS mismatch")
	}
	if ha.est {
		t.Fatal("session established despite AS mismatch")
	}
}

func TestAddPathNegotiation(t *testing.T) {
	ca, cb := baseConfigs()
	ca.AddPath, cb.AddPath = true, true
	sa, sb, ha, hb := pair(t, ca, cb)
	waitEstablished(t, ha, hb)
	if !sa.Options().AddPath || !sb.Options().AddPath {
		t.Fatal("ADD-PATH not negotiated when both offered")
	}

	// Only one side offers: not negotiated.
	ca2, cb2 := baseConfigs()
	ca2.AddPath = true
	sa2, sb2, ha2, hb2 := pair(t, ca2, cb2)
	waitEstablished(t, ha2, hb2)
	if sa2.Options().AddPath || sb2.Options().AddPath {
		t.Fatal("ADD-PATH negotiated unilaterally")
	}
}

func sampleUpdate() *wire.Update {
	return &wire.Update{
		Attrs: &wire.Attrs{
			Origin:  wire.OriginIGP,
			ASPath:  []wire.Segment{{Type: wire.SegSequence, ASNs: []uint32{47065}}},
			NextHop: addr("192.0.2.1"),
		},
		Reach: []wire.NLRI{{Prefix: prefix("100.64.0.0/24")}},
	}
}

func TestUpdateExchange(t *testing.T) {
	ca, cb := baseConfigs()
	sa, _, ha, hb := pair(t, ca, cb)
	waitEstablished(t, ha, hb)
	if err := sa.Send(sampleUpdate()); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-hb.updCh:
		if len(u.Reach) != 1 || u.Reach[0].Prefix != prefix("100.64.0.0/24") {
			t.Fatalf("update = %+v", u)
		}
		if u.Attrs.FirstAS() != 47065 {
			t.Fatalf("path = %s", u.Attrs.PathString())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("update not delivered")
	}
}

// TestUnencodableUpdateRefused: Send refuses an UPDATE that does not
// fit a message, nothing of it reaches the peer, and the session stays
// up for the next one.
func TestUnencodableUpdateRefused(t *testing.T) {
	ca, cb := baseConfigs()
	sa, sb, ha, hb := pair(t, ca, cb)
	waitEstablished(t, ha, hb)
	big := sampleUpdate()
	for i := range 1100 { // 4 400 bytes of communities
		big.Attrs.Communities = append(big.Attrs.Communities, wire.Community(i))
	}
	if err := sa.Send(big); err == nil {
		t.Fatal("Send took an UPDATE larger than a message")
	}
	if err := sa.Send(sampleUpdate()); err != nil {
		t.Fatalf("Send after a refused UPDATE: %v", err)
	}
	select {
	case u := <-hb.updCh:
		if len(u.Attrs.Communities) != 0 {
			t.Fatal("the refused UPDATE reached the peer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the UPDATE after the refused one was not delivered")
	}
	// Anything written before that UPDATE, a NOTIFICATION included, was
	// read before it.
	select {
	case <-hb.closeCh:
		t.Fatalf("the peer's session ended: %v", hb.err)
	default:
	}
	if !sa.Established() || !sb.Established() {
		t.Fatalf("states = %v / %v after a refused UPDATE", sa.State(), sb.State())
	}
	if n := sa.SentUpdates(); n != 1 {
		t.Fatalf("SentUpdates = %d, want 1: a refused UPDATE is not sent", n)
	}
}

func TestUpdateWithAddPathIDs(t *testing.T) {
	ca, cb := baseConfigs()
	ca.AddPath, cb.AddPath = true, true
	sa, _, ha, hb := pair(t, ca, cb)
	waitEstablished(t, ha, hb)
	u := sampleUpdate()
	u.Reach = []wire.NLRI{
		{Prefix: prefix("100.64.0.0/24"), ID: 11},
		{Prefix: prefix("100.64.0.0/24"), ID: 22},
	}
	if err := sa.Send(u); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-hb.updCh:
		if len(got.Reach) != 2 || got.Reach[0].ID != 11 || got.Reach[1].ID != 22 {
			t.Fatalf("reach = %+v", got.Reach)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("add-path update not delivered")
	}
}

func TestSendBeforeEstablishedFails(t *testing.T) {
	connA, _ := bufconn.Pipe()
	s := New(connA, Config{LocalAS: 1, LocalID: addr("1.1.1.1")}, nil)
	if err := s.Send(sampleUpdate()); err == nil {
		t.Fatal("Send on un-established session succeeded")
	}
}

func TestCleanClose(t *testing.T) {
	ca, cb := baseConfigs()
	sa, _, ha, hb := pair(t, ca, cb)
	waitEstablished(t, ha, hb)
	sa.Close()
	select {
	case <-hb.closeCh:
	case <-time.After(5 * time.Second):
		t.Fatal("peer did not observe close")
	}
	<-ha.closeCh
	if sa.State() != StateClosed {
		t.Fatalf("state = %v", sa.State())
	}
	// Idempotent.
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
}

// rawPeer completes the handshake with the session on the other end of
// conn by hand and returns: a neighbor that reads and writes bytes, not
// a Session, and goes silent unless the test makes it speak.
func rawPeer(t *testing.T, conn net.Conn, hold uint16) {
	t.Helper()
	if _, err := wire.ReadMessage(conn, wire.DefaultOptions); err != nil { // the session's OPEN
		t.Fatal(err)
	}
	open := &wire.Open{AS: 65001, HoldTime: hold, BGPID: addr("2.2.2.2"), Caps: wire.StandardCaps(65001, false)}
	b, _ := wire.Marshal(open, wire.DefaultOptions)
	conn.Write(b)
	kb, _ := wire.Marshal(&wire.Keepalive{}, wire.DefaultOptions)
	conn.Write(kb)
	if _, err := wire.ReadMessage(conn, wire.DefaultOptions); err != nil { // the session's KEEPALIVE
		t.Fatal(err)
	}
}

func TestHoldTimerExpiry(t *testing.T) {
	// A one-sided silent peer, on the system clock.
	connA, connB := bufconn.Pipe()
	_, ha := rawSession(t, connA, connB, nil, 3*time.Second)
	select {
	case <-ha.closeCh:
		ha.mu.Lock()
		defer ha.mu.Unlock()
		if ha.err == nil {
			t.Fatal("hold expiry produced no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hold timer never expired")
	}
}

func TestKeepalivesSustainSession(t *testing.T) {
	ca, cb := baseConfigs()
	ca.HoldTime, cb.HoldTime = 3*time.Second, 3*time.Second
	sa, sb, ha, hb := pair(t, ca, cb)
	waitEstablished(t, ha, hb)
	// Far longer than the hold time; keepalives must keep it alive.
	time.Sleep(4 * time.Second)
	if sa.State() != StateEstablished || sb.State() != StateEstablished {
		t.Fatalf("session died despite keepalives: %v / %v", sa.State(), sb.State())
	}
}

func TestNegotiatedHoldIsMin(t *testing.T) {
	ca, cb := baseConfigs()
	ca.HoldTime, cb.HoldTime = 30*time.Second, 90*time.Second
	sa, sb, ha, hb := pair(t, ca, cb)
	waitEstablished(t, ha, hb)
	sa.mu.Lock()
	haHold := sa.holdTime
	sa.mu.Unlock()
	sb.mu.Lock()
	hbHold := sb.holdTime
	sb.mu.Unlock()
	if haHold != 30*time.Second || hbHold != 30*time.Second {
		t.Fatalf("negotiated hold = %v / %v, want 30s", haHold, hbHold)
	}
}

func TestManyConcurrentSessions(t *testing.T) {
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			connA, connB := bufconn.Pipe()
			ha, hb := newCollector(), newCollector()
			sa := New(connA, Config{LocalAS: uint32(1000 + i), LocalID: addr("1.1.1.1")}, ha)
			sb := New(connB, Config{LocalAS: uint32(2000 + i), LocalID: addr("2.2.2.2")}, hb)
			go sa.Run()
			go sb.Run()
			<-ha.estCh
			<-hb.estCh
			sa.Send(sampleUpdate())
			<-hb.updCh
			sa.Close()
			sb.Close()
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent sessions deadlocked")
	}
}

// rawUpdate frames an UPDATE with no withdrawn routes, the attribute
// block attrs as given, and NLRI ps (no ADD-PATH).
func rawUpdate(attrs []byte, ps ...netip.Prefix) []byte {
	body := binary.BigEndian.AppendUint16([]byte{0, 0}, uint16(len(attrs)))
	body = append(body, attrs...)
	for _, p := range ps {
		a := p.Addr().As4()
		body = append(append(body, byte(p.Bits())), a[:(p.Bits()+7)/8]...)
	}
	msg := bytes.Repeat([]byte{0xff}, wire.MarkerLen)
	msg = binary.BigEndian.AppendUint16(msg, uint16(wire.HeaderLen+len(body)))
	return append(append(msg, byte(wire.MsgUpdate)), body...)
}

// A session with Config.Intern decodes a repeated attribute block once:
// both UPDATEs carrying it get the table's canonical pointer, a
// treat-as-withdraw block withdraws the same way on its hit, and the
// RFC 7606 counters count UPDATEs, not parses.
func TestReaderDecodesRepeatedBlockOnce(t *testing.T) {
	met := NewMetrics(telemetry.NewRegistry())
	tab := wire.NewInternTable()
	connA, connB := bufconn.Pipe()
	ha := newCollector()
	sa := New(connA, Config{LocalAS: 1, LocalID: addr("1.1.1.1"), Describe: "A", Metrics: met, Intern: tab}, ha)
	go sa.Run()
	t.Cleanup(func() { sa.Close() })
	rawPeer(t, connB, 90)
	waitEstablished(t, ha)

	path := []byte{0x40, 1, 1, 0, 0x40, 2, 6, 2, 1, 0, 0, 0xfd, 0xe9, 0x40, 3, 4, 192, 0, 2, 1}
	good := append(slices.Clone(path), 0xc0, 7, 3, 1, 2, 3) // AGGREGATOR of 3 bytes: discarded
	bad := slices.Clone(path)
	bad[3] = 9 // ORIGIN 9: treat-as-withdraw
	ps := []netip.Prefix{prefix("100.64.0.0/24"), prefix("100.64.1.0/24"), prefix("100.64.2.0/24"), prefix("100.64.3.0/24")}
	msgs := [][]byte{rawUpdate(good, ps[0]), rawUpdate(good, ps[1]), rawUpdate(bad, ps[2]), rawUpdate(bad, ps[3])}
	for _, m := range msgs {
		connB.Write(m)
	}
	var got []*wire.Update
	for range msgs {
		select {
		case u := <-ha.updCh:
			got = append(got, u)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d UPDATEs delivered", len(got), len(msgs))
		}
	}

	fresh, err := wire.Decode(msgs[0], wire.Options{AS4: true})
	if err != nil {
		t.Fatal(err)
	}
	canon := tab.Lookup(fresh.(*wire.Update).Attrs)
	for i, u := range got[:2] {
		if canon == nil || u.Attrs != canon {
			t.Fatalf("UPDATE %d: attrs %p, want the table's canonical %p", i, u.Attrs, canon)
		}
		if !slices.Equal(u.Discarded, []uint8{7}) || len(u.Reach) != 1 || u.Reach[0].Prefix != ps[i] {
			t.Fatalf("UPDATE %d: discarded %v, reach %v", i, u.Discarded, u.Reach)
		}
	}
	for i, u := range got[2:] {
		if u.Malformed == nil || u.Attrs != nil || len(u.Reach) != 0 ||
			len(u.Withdrawn) != 1 || u.Withdrawn[0].Prefix != ps[2+i] {
			t.Fatalf("UPDATE %d: malformed %v, attrs %v, reach %v, withdrawn %v, want %v withdrawn",
				2+i, u.Malformed, u.Attrs, u.Reach, u.Withdrawn, ps[2+i])
		}
	}
	for _, c := range []struct {
		vec   *telemetry.CounterVec
		label string
		want  uint64
	}{
		{met.Errors, "attribute_discard", 2},
		{met.Errors, "treat_as_withdraw", 2},
		{met.AttrDecodes, "parsed", 2},
		{met.AttrDecodes, "cached", 2},
	} {
		if got := c.vec.With(c.label).Value(); got != c.want {
			t.Errorf("%s: %d, want %d", c.label, got, c.want)
		}
	}
}
