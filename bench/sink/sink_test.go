package sink

import (
	"net/netip"
	"testing"

	"peering/internal/wire"
)

// testStream encodes 300 UPDATEs of mixed shape with the repository's
// codec: tracked and untracked prefixes, several mask lengths, and a
// withdrawal in every tenth message.
func testStream(t *testing.T, opts wire.Options, rng Range) []byte {
	t.Helper()
	var b []byte
	for i := 0; i < 300; i++ {
		u := &wire.Update{Attrs: &wire.Attrs{
			Origin:  wire.OriginIGP,
			ASPath:  []wire.Segment{{Type: wire.SegSequence, ASNs: []uint32{1, uint32(100 + i%7)}}},
			NextHop: netip.AddrFrom4([4]byte{10, 0, 1, 1}),
		}}
		nlri := func(p netip.Prefix) wire.NLRI {
			n := wire.NLRI{Prefix: p}
			if opts.AddPath {
				n.ID = 1
			}
			return n
		}
		for k := 0; k < 1+i%40; k++ {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(11 + i%5), byte(i), byte(k), 0}), 24-k%9).Masked()
			if i%3 == 0 {
				p = rng.Prefix((i*41 + k) % rng.N)
			}
			u.Reach = append(u.Reach, nlri(p))
		}
		if i%10 == 9 {
			u.Withdrawn = append(u.Withdrawn, nlri(rng.Prefix(i%rng.N)))
		}
		var err error
		if b, err = wire.AppendMessage(b, u, opts); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// modelOf replays a stream through the repository's decoder into a
// Table: what the hand-written walk must agree with.
func modelOf(t *testing.T, b []byte, opts wire.Options, rng Range) *Table {
	t.Helper()
	model := NewTable(rng)
	for len(b) > 0 {
		l := int(b[16])<<8 | int(b[17])
		msg, err := wire.Decode(b[:l], opts)
		if err != nil {
			t.Fatal(err)
		}
		u := msg.(*wire.Update)
		for _, n := range u.Withdrawn {
			model.WithdrawPrefix(n.Prefix)
		}
		if u.Attrs != nil {
			ab, err := wire.MarshalAttrs(u.Attrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range u.Reach {
				model.AnnouncePrefix(n.Prefix, HashAttrs(ab))
			}
		}
		b = b[l:]
	}
	return model
}

func TestWalkerMatchesCodec(t *testing.T) {
	rng := Range{Base: 10 << 24, N: 64}
	for _, opts := range []wire.Options{{AS4: true}, {AS4: true, AddPath: true}} {
		b := testStream(t, opts, rng)
		want := modelOf(t, b, opts, rng).Counts()
		// Feed in awkward pieces so messages straddle every boundary.
		for _, step := range []int{1, 7, 19, 4096, len(b)} {
			w, err := NewWalker(opts.AddPath, []uint32{1}, rng)
			if err != nil {
				t.Fatal(err)
			}
			for at := 0; at < len(b); at += step {
				w.Feed(b[at:min(at+step, len(b))])
			}
			got := w.Table(1).Load()
			if !got.Equal(want) || got.TrackedOps != want.TrackedOps {
				t.Errorf("addpath=%v step=%d: walker holds %+v, codec model %+v", opts.AddPath, step, got, want)
			}
			if n := w.Stats().Malformed.Load(); n != 0 {
				t.Errorf("addpath=%v step=%d: %d messages reported malformed", opts.AddPath, step, n)
			}
			if n := w.Stats().Updates.Load(); n != 300 {
				t.Errorf("addpath=%v step=%d: walked %d UPDATEs, want 300", opts.AddPath, step, n)
			}
		}
	}
}

func TestTableNoticesEveryKindOfDamage(t *testing.T) {
	rng := Range{Base: 10 << 24, N: 16}
	p := netip.MustParsePrefix("11.1.2.0/24")
	q := netip.MustParsePrefix("11.1.3.0/24")
	build := func(attrs uint64, extra func(*Table)) Counts {
		tb := NewTable(rng)
		tb.AnnouncePrefix(p, attrs)
		tb.AnnouncePrefix(rng.Prefix(3), 9)
		if extra != nil {
			extra(tb)
		}
		return tb.Counts()
	}
	want := build(5, nil)
	for name, got := range map[string]Counts{
		"duplicate":       build(5, func(tb *Table) { tb.AnnouncePrefix(p, 5) }),
		"extra route":     build(5, func(tb *Table) { tb.AnnouncePrefix(q, 5) }),
		"wrong attrs":     build(6, nil),
		"tracked changed": build(5, func(tb *Table) { tb.AnnouncePrefix(rng.Prefix(3), 10) }),
		"tracked dropped": build(5, func(tb *Table) { tb.WithdrawPrefix(rng.Prefix(3)) }),
	} {
		if got.Equal(want) {
			t.Errorf("%s: table still equals the model", name)
		}
	}
	// Order and coalescing must not matter for the tracked range.
	a, b := NewTable(rng), NewTable(rng)
	a.AnnouncePrefix(rng.Prefix(1), 7)
	a.AnnouncePrefix(rng.Prefix(2), 8)
	a.AnnouncePrefix(rng.Prefix(1), 9)
	b.AnnouncePrefix(rng.Prefix(2), 8)
	b.AnnouncePrefix(rng.Prefix(1), 9)
	if !a.Counts().Equal(b.Counts()) {
		t.Error("tracked checksum depends on the order or number of operations")
	}
}
