package bgp

import (
	"errors"
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"peering/internal/bufconn"
	"peering/internal/clock"
	"peering/internal/faultconn"
	"peering/internal/wire"
)

// waitFor polls cond in real time; virtual-clock tests use it only to
// let goroutine scheduling catch up, never to pass protocol time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if !time.Now().Before(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBackoffDeterministicSchedule(t *testing.T) {
	b := Backoff{Initial: time.Second, Max: 8 * time.Second, Factor: 2}
	want := []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second,
		8 * time.Second, 8 * time.Second, 8 * time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i+1, nil); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Out-of-range attempts clamp rather than misbehave.
	if got := b.Delay(0, nil); got != time.Second {
		t.Fatalf("Delay(0) = %v", got)
	}
	if got := b.Delay(100, nil); got != 8*time.Second {
		t.Fatalf("Delay(100) = %v", got)
	}
}

func TestBackoffJitterSeededAndBounded(t *testing.T) {
	b := Backoff{Initial: time.Second, Max: time.Minute, Factor: 2, Jitter: 0.5, Seed: 42}
	r1 := rand.New(rand.NewSource(b.Seed))
	r2 := rand.New(rand.NewSource(b.Seed))
	for i := 1; i <= 8; i++ {
		d1, d2 := b.Delay(i, r1), b.Delay(i, r2)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed gave %v and %v", i, d1, d2)
		}
		base := b.Delay(i, nil)
		lo := time.Duration(float64(base) * 0.5)
		hi := time.Duration(float64(base) * 1.5)
		if hi > b.Max {
			hi = b.Max
		}
		if d1 < lo || d1 > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, d1, lo, hi)
		}
	}
}

// flakyDialer hands out bufconn pairs, running a responder session on
// the far end of each, and can be switched to fail dials.
type flakyDialer struct {
	clk clock.Clock

	mu    sync.Mutex
	fail  bool
	dials int
	peers []*Session
}

func (d *flakyDialer) setFail(fail bool) {
	d.mu.Lock()
	d.fail = fail
	d.mu.Unlock()
}

func (d *flakyDialer) dialCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials
}

func (d *flakyDialer) lastPeer() *Session {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.peers) == 0 {
		return nil
	}
	return d.peers[len(d.peers)-1]
}

func (d *flakyDialer) dial() (net.Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dials++
	if d.fail {
		return nil, errors.New("dial refused")
	}
	ours, theirs := bufconn.Pipe()
	peer := New(theirs, Config{
		LocalAS: 65001, LocalID: addr("2.2.2.2"), Clock: d.clk, Describe: "responder",
	}, HandlerFuncs{})
	d.peers = append(d.peers, peer)
	go peer.Run()
	return ours, nil
}

func TestSupervisorRedialsAfterTransportLoss(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	d := &flakyDialer{clk: clk}
	var attempts, recovered []int
	var mu sync.Mutex
	sv := NewSupervisor(SupervisorConfig{
		Session: Config{LocalAS: 47065, LocalID: addr("1.1.1.1"), Clock: clk, Describe: "supervised"},
		Dial:    d.dial,
		Backoff: Backoff{Initial: time.Second, Max: 8 * time.Second, Factor: 2},
		OnAttempt: func(n int) {
			mu.Lock()
			attempts = append(attempts, n)
			mu.Unlock()
		},
		OnRecover: func(n int) {
			mu.Lock()
			recovered = append(recovered, n)
			mu.Unlock()
		},
	}, HandlerFuncs{})
	sv.Start()
	t.Cleanup(sv.Stop)

	waitFor(t, "initial establishment", func() bool {
		s := sv.Session()
		return s != nil && s.State() == StateEstablished
	})

	// Kill the transport abruptly (no Cease): the supervisor must treat
	// it as a blip and schedule a redial.
	d.lastPeer().conn.Close()
	waitFor(t, "failure recorded", func() bool {
		return sv.Stats().ConsecutiveFailures == 1
	})

	// The redial is due exactly one backoff step later — virtual time
	// only; nothing fires before the deadline.
	clk.Advance(999 * time.Millisecond)
	if got := d.dialCount(); got != 1 {
		t.Fatalf("redialed early: %d dials", got)
	}
	clk.Advance(time.Millisecond)
	waitFor(t, "re-establishment", func() bool {
		s := sv.Session()
		return s != nil && s.State() == StateEstablished && sv.Stats().Recoveries == 1
	})

	mu.Lock()
	defer mu.Unlock()
	if len(attempts) != 1 || attempts[0] != 1 {
		t.Fatalf("attempts = %v", attempts)
	}
	if len(recovered) != 1 || recovered[0] != 1 {
		t.Fatalf("recovered = %v", recovered)
	}
	if st := sv.Stats(); st.Attempts != 1 || st.ConsecutiveFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSupervisorBackoffGrowsAcrossFailedDials(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	d := &flakyDialer{clk: clk}
	sv := NewSupervisor(SupervisorConfig{
		Session: Config{LocalAS: 47065, LocalID: addr("1.1.1.1"), Clock: clk},
		Dial:    d.dial,
		Backoff: Backoff{Initial: time.Second, Max: 8 * time.Second, Factor: 2},
	}, HandlerFuncs{})

	d.setFail(true)
	sv.Start() // initial dial fails synchronously → failure 1, redial in 1s
	t.Cleanup(sv.Stop)
	if got := sv.Stats().ConsecutiveFailures; got != 1 {
		t.Fatalf("failures after Start = %d", got)
	}

	// Each Advance fires exactly one redial; the failed dial re-arms the
	// next inside the same callback, outside the advance window.
	for i, step := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second} {
		clk.Advance(step - time.Millisecond)
		if got := d.dialCount(); got != 1+i {
			t.Fatalf("step %d: %d dials before deadline", i, got)
		}
		clk.Advance(time.Millisecond)
		if got := d.dialCount(); got != 2+i {
			t.Fatalf("step %d: %d dials after deadline", i, got)
		}
	}

	// Recovery resets the schedule to Initial.
	d.setFail(false)
	clk.Advance(8 * time.Second)
	waitFor(t, "recovery", func() bool { return sv.Stats().Recoveries == 1 })
	d.lastPeer().conn.Close()
	waitFor(t, "fresh failure", func() bool {
		return sv.Stats().ConsecutiveFailures == 1
	})
	before := d.dialCount()
	clk.Advance(time.Second)
	waitFor(t, "redial at initial backoff", func() bool {
		return d.dialCount() == before+1
	})
}

func TestSupervisorRedialsAfterHoldExpiry(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	var mu sync.Mutex
	var live [][2]*faultconn.Conn
	dial := func() (net.Conn, error) {
		ours, theirs := faultconn.Pipe(clk)
		mu.Lock()
		live = append(live, [2]*faultconn.Conn{ours, theirs})
		mu.Unlock()
		peer := New(theirs, Config{
			LocalAS: 65001, LocalID: addr("2.2.2.2"), Clock: clk, Describe: "responder",
		}, HandlerFuncs{})
		go peer.Run()
		return ours, nil
	}
	sv := NewSupervisor(SupervisorConfig{
		Session: Config{LocalAS: 47065, LocalID: addr("1.1.1.1"), Clock: clk, Describe: "supervised"},
		Dial:    dial,
		Backoff: Backoff{Initial: time.Second, Max: 8 * time.Second, Factor: 2},
	}, HandlerFuncs{})
	sv.Start()
	t.Cleanup(sv.Stop)
	waitFor(t, "establishment", func() bool {
		s := sv.Session()
		return s != nil && s.State() == StateEstablished
	})

	// Cut the wire silently: keepalives vanish into the partition and
	// the hold timer (90s) expires on both ends.
	mu.Lock()
	first := live[0]
	mu.Unlock()
	faultconn.PartitionBoth(first[0], first[1])
	clk.Advance(DefaultHoldTime + 50*time.Millisecond)
	waitFor(t, "hold expiry recorded", func() bool {
		return sv.Stats().ConsecutiveFailures == 1
	})

	// Heal, fire the redial, and the session must come back.
	faultconn.HealBoth(first[0], first[1])
	clk.Advance(time.Second + time.Millisecond)
	waitFor(t, "re-establishment after hold expiry", func() bool {
		s := sv.Session()
		return s != nil && s.State() == StateEstablished && sv.Stats().Recoveries == 1
	})
}

func TestSupervisorStopsOnPeerCease(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	d := &flakyDialer{clk: clk}
	sv := NewSupervisor(SupervisorConfig{
		Session: Config{LocalAS: 47065, LocalID: addr("1.1.1.1"), Clock: clk},
		Dial:    d.dial,
	}, HandlerFuncs{})
	sv.Start()
	waitFor(t, "establishment", func() bool {
		s := sv.Session()
		return s != nil && s.State() == StateEstablished
	})

	// An administrative Cease from the peer is a goodbye, not a blip:
	// the supervisor must terminate without redialing.
	d.lastPeer().Close()
	select {
	case <-sv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor did not terminate on peer Cease")
	}
	if got := d.dialCount(); got != 1 {
		t.Fatalf("dials = %d, want 1", got)
	}
}

func TestSupervisorGivesUpAfterMaxAttempts(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	d := &flakyDialer{clk: clk}
	d.setFail(true)
	sv := NewSupervisor(SupervisorConfig{
		Session:     Config{LocalAS: 47065, LocalID: addr("1.1.1.1"), Clock: clk},
		Dial:        d.dial,
		Backoff:     Backoff{Initial: time.Second, Max: 8 * time.Second, Factor: 2},
		MaxAttempts: 3,
	}, HandlerFuncs{})
	sv.Start()

	// Failures cascade deterministically: redials at +1s, +2s, +4s, then
	// the fourth consecutive failure exceeds MaxAttempts.
	clk.Advance(7 * time.Second)
	select {
	case <-sv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor did not give up")
	}
	if got := d.dialCount(); got != 4 { // initial + 3 retries
		t.Fatalf("dials = %d, want 4", got)
	}
	if st := sv.Stats(); st.Attempts != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSupervisorStopBeforeRedial(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
	d := &flakyDialer{clk: clk}
	d.setFail(true)
	sv := NewSupervisor(SupervisorConfig{
		Session: Config{LocalAS: 47065, LocalID: addr("1.1.1.1"), Clock: clk},
		Dial:    d.dial,
		Backoff: Backoff{Initial: time.Second},
	}, HandlerFuncs{})
	sv.Start()
	sv.Stop() // while backing off
	clk.Advance(time.Minute)
	if got := d.dialCount(); got != 1 {
		t.Fatalf("dials after Stop = %d, want 1", got)
	}
	select {
	case <-sv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor did not finish after Stop")
	}
}

// deliveryCounter records what a supervised session hands its handler:
// the UPDATEs in order and how many calls carried them. Its Established
// holds the session's reader until gate closes, so a burst the peer
// sends meanwhile is all buffered when reading starts.
type deliveryCounter struct {
	gate chan struct{}

	mu         sync.Mutex
	deliveries int
	prefixes   []netip.Prefix
}

func (h *deliveryCounter) Established(*Session)   { <-h.gate }
func (h *deliveryCounter) Closed(*Session, error) {}

func (h *deliveryCounter) UpdateReceived(_ *Session, u *wire.Update) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.deliveries++
	h.prefixes = append(h.prefixes, u.Reach[0].Prefix)
}

func (h *deliveryCounter) received() (deliveries int, prefixes []netip.Prefix) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.deliveries, slices.Clone(h.prefixes)
}

// batchCounter is a deliveryCounter that takes batches.
type batchCounter struct{ deliveryCounter }

func (h *batchCounter) UpdateBatchReceived(_ *Session, upds []*wire.Update) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.deliveries++
	for _, u := range upds {
		h.prefixes = append(h.prefixes, u.Reach[0].Prefix)
	}
}

// A supervised session batches as a bare one does: a 64-UPDATE burst
// reaches a batch handler in fewer than 64 calls, and a plain handler
// still gets every UPDATE, one call each, in order.
func TestSupervisorDeliversBatches(t *testing.T) {
	const burst = 64
	for _, batched := range []bool{true, false} {
		c := &batchCounter{deliveryCounter{gate: make(chan struct{})}}
		var h Handler = c
		if !batched {
			h = &c.deliveryCounter
		}
		clk := clock.NewVirtual(time.Unix(1_700_000_000, 0))
		d := &flakyDialer{clk: clk}
		sv := NewSupervisor(SupervisorConfig{
			Session: Config{LocalAS: 47065, LocalID: addr("1.1.1.1"), Clock: clk},
			Dial:    d.dial,
		}, h)
		sv.Start()
		waitFor(t, "the peer's side established", func() bool {
			p := d.lastPeer()
			return p != nil && p.State() == StateEstablished
		})
		var want []netip.Prefix
		for i := 0; i < burst; i++ {
			u := &wire.Update{
				Attrs: &wire.Attrs{Origin: wire.OriginIGP, NextHop: addr("192.0.2.2"),
					ASPath: []wire.Segment{{Type: wire.SegSequence, ASNs: []uint32{65001}}}},
				Reach: []wire.NLRI{{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(i), 0}), 24)}},
			}
			if err := d.lastPeer().Send(u); err != nil {
				t.Fatal(err)
			}
			want = append(want, u.Reach[0].Prefix)
		}
		close(c.gate)
		waitFor(t, "the burst", func() bool {
			_, got := c.received()
			return len(got) == burst
		})
		n, got := c.received()
		if !slices.Equal(got, want) {
			t.Fatalf("batched %v: handler saw %v, peer sent %v", batched, got, want)
		}
		if batched && n >= burst {
			t.Errorf("batch handler got the %d-UPDATE burst in %d calls, want fewer", burst, n)
		}
		if !batched && n != burst {
			t.Errorf("plain handler got %d calls for %d UPDATEs", n, burst)
		}
		sv.Stop()
	}
}
