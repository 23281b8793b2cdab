package dampen

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"peering/internal/clock"
)

var epoch = time.Date(2014, 10, 27, 0, 0, 0, 0, time.UTC)

func key(p, s string) Key {
	return Key{Prefix: netip.MustParsePrefix(p), Source: netip.MustParseAddr(s)}
}

func newTest() (*Damper, *clock.Virtual) {
	v := clock.NewVirtual(epoch)
	return New(DefaultConfig(), v), v
}

func TestSingleFlapNotSuppressed(t *testing.T) {
	d, _ := newTest()
	k := key("100.64.0.0/24", "10.0.0.1")
	if d.RecordFlap(k) {
		t.Fatal("one flap (penalty 1000 < 2000) suppressed")
	}
	if d.Suppressed(k) {
		t.Fatal("Suppressed after one flap")
	}
	if got := d.Penalty(k); got != 1000 {
		t.Fatalf("penalty = %v, want 1000", got)
	}
}

func TestTwoQuickFlapsSuppress(t *testing.T) {
	d, _ := newTest()
	k := key("100.64.0.0/24", "10.0.0.1")
	d.RecordFlap(k)
	if !d.RecordFlap(k) {
		t.Fatal("two immediate flaps (penalty 2000) should suppress")
	}
	if !d.Suppressed(k) {
		t.Fatal("Suppressed = false after crossing threshold")
	}
}

func TestDecayReusesRoute(t *testing.T) {
	d, v := newTest()
	k := key("100.64.0.0/24", "10.0.0.1")
	d.RecordFlap(k)
	d.RecordFlap(k)
	if !d.Suppressed(k) {
		t.Fatal("not suppressed")
	}
	// Penalty 2000 → reuse at 750 needs log2(2000/750) ≈ 1.415 half
	// lives ≈ 21.2 min. At 20 minutes: still suppressed.
	v.Advance(20 * time.Minute)
	if !d.Suppressed(k) {
		t.Fatal("suppression lifted too early")
	}
	v.Advance(2 * time.Minute)
	if d.Suppressed(k) {
		t.Fatal("suppression not lifted after reuse threshold crossed")
	}
}

func TestReuseInEstimate(t *testing.T) {
	d, v := newTest()
	k := key("100.64.0.0/24", "10.0.0.1")
	d.RecordFlap(k)
	d.RecordFlap(k)
	in := d.ReuseIn(k)
	want := time.Duration(math.Log2(2000.0/750.0) * float64(15*time.Minute))
	if diff := (in - want).Abs(); diff > time.Second {
		t.Fatalf("ReuseIn = %v, want ≈%v", in, want)
	}
	v.Advance(in + time.Second)
	if d.Suppressed(k) {
		t.Fatal("still suppressed after ReuseIn elapsed")
	}
	if d.ReuseIn(k) != 0 {
		t.Fatal("ReuseIn nonzero when not suppressed")
	}
}

func TestHalfLifeDecayExact(t *testing.T) {
	d, v := newTest()
	k := key("100.64.0.0/24", "10.0.0.1")
	d.RecordFlap(k)
	v.Advance(15 * time.Minute)
	if got := d.Penalty(k); math.Abs(got-500) > 0.5 {
		t.Fatalf("penalty after one half-life = %v, want ≈500", got)
	}
	v.Advance(15 * time.Minute)
	if got := d.Penalty(k); math.Abs(got-250) > 0.5 {
		t.Fatalf("penalty after two half-lives = %v, want ≈250", got)
	}
}

func TestMaxSuppressCapsPenalty(t *testing.T) {
	d, v := newTest()
	k := key("100.64.0.0/24", "10.0.0.1")
	// Flap relentlessly.
	for i := 0; i < 100; i++ {
		d.RecordFlap(k)
	}
	cap := DefaultConfig().maxPenalty()
	if got := d.Penalty(k); got > cap+0.001 {
		t.Fatalf("penalty %v exceeds cap %v", got, cap)
	}
	// Even at the cap, suppression must lift within MaxSuppress.
	v.Advance(DefaultConfig().MaxSuppress + time.Second)
	if d.Suppressed(k) {
		t.Fatal("suppression outlived MaxSuppress")
	}
}

func TestKeysIndependent(t *testing.T) {
	d, _ := newTest()
	k1 := key("100.64.0.0/24", "10.0.0.1")
	k2 := key("100.64.1.0/24", "10.0.0.1")
	k3 := key("100.64.0.0/24", "10.0.0.2")
	// The IPv4-mapped IPv6 twins of k1's prefix and source are different
	// keys. (The same route on another peering is another damper.)
	k4 := key("::ffff:100.64.0.0/120", "10.0.0.1")
	k5 := key("100.64.0.0/24", "::ffff:10.0.0.1")
	d.RecordFlap(k1)
	d.RecordFlap(k1)
	if !d.Suppressed(k1) {
		t.Fatal("k1 not suppressed")
	}
	for i, k := range []Key{k2, k3, k4, k5} {
		if d.Suppressed(k) || d.Penalty(k) != 0 {
			t.Fatalf("suppression leaked across keys (k%d)", i+2)
		}
	}
}

// TestRecordAtTakesTheCallersReading: a flap is charged at the reading
// it is given, not at the damper's clock, and a reading behind the
// record's last update neither decays it nor turns it back.
func TestRecordAtTakesTheCallersReading(t *testing.T) {
	d, v := newTest()
	k := key("100.64.0.0/24", "10.0.0.1")
	at := v.Now()
	v.Advance(15 * time.Minute)
	// Charged a half-life ago, read now.
	if d.RecordAt(k, at, false) || math.Abs(d.Penalty(k)-500) > 0.5 {
		t.Fatalf("penalty %v one half-life after the flap, want ≈500", d.Penalty(k))
	}
	if d.RecordAt(k, at, true) || math.Abs(d.Penalty(k)-1500) > 0.5 {
		t.Fatalf("penalty %v after a withdrawal stamped behind the last update, want ≈1500", d.Penalty(k))
	}
	if !d.RecordAt(k, at, false) {
		t.Fatal("penalty ≈2500 not suppressed")
	}
}

func TestWithdrawPenalty(t *testing.T) {
	d, _ := newTest()
	k := key("100.64.0.0/24", "10.0.0.1")
	d.RecordWithdraw(k)
	if !d.RecordWithdraw(k) {
		t.Fatal("two withdrawals should suppress")
	}
}

func TestSweep(t *testing.T) {
	d, v := newTest()
	for i := 0; i < 10; i++ {
		d.RecordFlap(key("100.64.0.0/24", "10.0.0.1"))
	}
	d.RecordFlap(key("100.64.9.0/24", "10.0.0.9"))
	if d.Tracked() != 2 {
		t.Fatalf("Tracked = %d", d.Tracked())
	}
	// After ~11 half-lives even the capped penalty decays below 1.
	v.Advance(6 * time.Hour)
	if n := d.Sweep(); n != 0 {
		t.Fatalf("Sweep left %d records", n)
	}
}

// TestSelfSweep: nobody calls Sweep, yet the table stays bounded — a
// new record sweeps the decayed ones out once the table has doubled
// since the last sweep. A record's last flap is forgotten after
// MaxSuppress + HalfLife·log2(ReuseThreshold) (the capped penalty
// falling below 1) of further traffic.
func TestSelfSweep(t *testing.T) {
	d, v := newTest()
	cfg := DefaultConfig()
	flap := func(gen, n int) {
		for i := 0; i < n; i++ {
			d.RecordFlap(Key{
				Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(gen), byte(i >> 8), byte(i)}), 32),
				Source: netip.MustParseAddr("10.0.0.1"),
			})
		}
	}
	// Two flaps each: the first generation is suppressed, so it also
	// has to come back through the reuse threshold before it can go.
	flap(0, 3*minSweepAt)
	flap(0, 3*minSweepAt)
	if got := d.Tracked(); got != 3*minSweepAt {
		t.Fatalf("Tracked = %d, want %d: live records were swept", got, 3*minSweepAt)
	}
	forget := cfg.MaxSuppress + time.Duration(math.Log2(cfg.ReuseThreshold)*float64(cfg.HalfLife)) + time.Second
	for gen := 1; gen <= 4; gen++ {
		v.Advance(forget)
		flap(gen, 3*minSweepAt)
		// The previous generation has decayed to nothing; whatever of it
		// the last sweep missed is at most as large as what is live.
		if got := d.Tracked(); got > 2*3*minSweepAt {
			t.Fatalf("generation %d: Tracked = %d, want at most %d", gen, got, 2*3*minSweepAt)
		}
	}
	if d.Suppressed(Key{Prefix: netip.MustParsePrefix("100.0.0.0/32"), Source: netip.MustParseAddr("10.0.0.1")}) {
		t.Fatal("a swept record is still suppressed")
	}
}

func TestUnknownKeyZero(t *testing.T) {
	d, _ := newTest()
	k := key("1.2.3.0/24", "4.5.6.7")
	if d.Suppressed(k) || d.Penalty(k) != 0 || d.ReuseIn(k) != 0 {
		t.Fatal("untracked key should be zero-state")
	}
}

// Property: penalty never exceeds the MaxSuppress cap and never goes
// negative, regardless of flap/advance interleaving.
func TestQuickPenaltyBounds(t *testing.T) {
	cfg := DefaultConfig()
	maxP := cfg.maxPenalty()
	f := func(ops []uint8) bool {
		v := clock.NewVirtual(epoch)
		d := New(cfg, v)
		k := key("100.64.0.0/24", "10.0.0.1")
		for _, op := range ops {
			switch op % 3 {
			case 0:
				d.RecordFlap(k)
			case 1:
				d.RecordWithdraw(k)
			case 2:
				v.Advance(time.Duration(op) * time.Minute / 4)
			}
			p := d.Penalty(k)
			if p < 0 || p > maxP+0.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a suppressed route always becomes reusable within
// MaxSuppress of its last flap.
func TestQuickSuppressionBounded(t *testing.T) {
	cfg := DefaultConfig()
	f := func(nFlaps uint8) bool {
		v := clock.NewVirtual(epoch)
		d := New(cfg, v)
		k := key("100.64.0.0/24", "10.0.0.1")
		for i := 0; i < int(nFlaps%50)+2; i++ {
			d.RecordFlap(k)
		}
		v.Advance(cfg.MaxSuppress + time.Second)
		return !d.Suppressed(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecordFlap(b *testing.B) {
	d := New(DefaultConfig(), clock.NewVirtual(epoch))
	ks := make([]Key, 256)
	for i := range ks {
		ks[i] = Key{
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(i), 0}), 24),
			Source: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.RecordFlap(ks[i%len(ks)])
	}
}
