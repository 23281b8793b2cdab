package wire

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"
)

func batchPrefix(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func batchAttrs(asn uint32) *Attrs {
	return &Attrs{
		ASPath:  []Segment{{Type: SegSequence, ASNs: []uint32{asn}}},
		NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
	}
}

func TestPackUpdatesGroupsByAttrs(t *testing.T) {
	a1 := batchAttrs(100)
	a2 := batchAttrs(200)
	a1b := batchAttrs(100) // distinct pointer, identical encoding
	routes := []AttrRoute{
		{NLRI: NLRI{Prefix: batchPrefix(t, "10.0.0.0/24")}, Attrs: a1},
		{NLRI: NLRI{Prefix: batchPrefix(t, "10.0.1.0/24")}, Attrs: a2},
		{NLRI: NLRI{Prefix: batchPrefix(t, "10.0.2.0/24")}, Attrs: a1b},
	}
	out := PackUpdates(nil, routes, Options{AS4: true})
	if len(out) != 2 {
		t.Fatalf("got %d updates, want 2 (one per attribute group): %+v", len(out), out)
	}
	if len(out[0].Reach) != 2 || len(out[1].Reach) != 1 {
		t.Fatalf("group sizes = %d, %d; want 2, 1", len(out[0].Reach), len(out[1].Reach))
	}
	if out[0].Reach[0].Prefix != routes[0].NLRI.Prefix || out[0].Reach[1].Prefix != routes[2].NLRI.Prefix {
		t.Fatalf("first group lost NLRI order: %v", out[0].Reach)
	}
}

func TestPackUpdatesWithdrawFirstAndOrdered(t *testing.T) {
	wd := []NLRI{
		{Prefix: batchPrefix(t, "10.1.0.0/24")},
		{Prefix: batchPrefix(t, "10.1.1.0/24")},
	}
	routes := []AttrRoute{{NLRI: NLRI{Prefix: batchPrefix(t, "10.2.0.0/24")}, Attrs: batchAttrs(100)}}
	out := PackUpdates(wd, routes, Options{AS4: true})
	if len(out) != 2 {
		t.Fatalf("got %d updates, want 2", len(out))
	}
	if got := out[0].Withdrawn; len(got) != 2 || got[0] != wd[0] || got[1] != wd[1] {
		t.Fatalf("withdraw message = %v, want %v first", got, wd)
	}
	if len(out[1].Reach) != 1 {
		t.Fatalf("announce message = %+v", out[1])
	}
}

func TestPackUpdatesSplitsAtMaxMsgLen(t *testing.T) {
	// Enough /24s to overflow one 4096-byte frame (4 bytes each encoded,
	// 9 with ADD-PATH), all sharing one attribute set.
	attrs := batchAttrs(100)
	var routes []AttrRoute
	for i := 0; i < 2000; i++ {
		p := batchPrefix(t, fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
		routes = append(routes, AttrRoute{NLRI: NLRI{Prefix: p, ID: PathID(i)}, Attrs: attrs})
	}
	for _, opt := range []Options{{AS4: true}, {AS4: true, AddPath: true}} {
		out := PackUpdates(nil, routes, opt)
		if len(out) < 2 {
			t.Fatalf("opt %+v: 2000 routes fit in %d message(s)?", opt, len(out))
		}
		total := 0
		for _, u := range out {
			b, err := Marshal(u, opt)
			if err != nil {
				t.Fatalf("opt %+v: Marshal: %v", opt, err)
			}
			if len(b) > MaxMsgLen {
				t.Fatalf("opt %+v: packed message is %d bytes", opt, len(b))
			}
			total += len(u.Reach)
		}
		// Order across the split must be preserved.
		i := 0
		for _, u := range out {
			for _, n := range u.Reach {
				if n != routes[i].NLRI {
					t.Fatalf("opt %+v: NLRI %d = %v, want %v", opt, i, n, routes[i].NLRI)
				}
				i++
			}
		}
		if total != len(routes) {
			t.Fatalf("opt %+v: packed %d NLRIs, want %d", opt, total, len(routes))
		}
	}
}

func TestPackUpdatesLargeWithdrawSplit(t *testing.T) {
	var wd []NLRI
	for i := 0; i < 1200; i++ {
		wd = append(wd, NLRI{Prefix: batchPrefix(t, fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))})
	}
	out := PackUpdates(wd, nil, Options{AS4: true})
	if len(out) < 2 {
		t.Fatalf("1200 withdrawals fit in %d message(s)?", len(out))
	}
	total := 0
	for _, u := range out {
		if len(u.Reach) != 0 || u.Attrs != nil {
			t.Fatalf("withdraw-only message carries announcements: %+v", u)
		}
		b, err := Marshal(u, Options{AS4: true})
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		if len(b) > MaxMsgLen {
			t.Fatalf("packed withdraw message is %d bytes", len(b))
		}
		total += len(u.Withdrawn)
	}
	if total != len(wd) {
		t.Fatalf("packed %d withdrawals, want %d", total, len(wd))
	}
}

// TestPackUpdatesDoesNotMutateAttrs enforces the immutability contract:
// the packer only reads the attribute sets it is handed (the same
// pointer may be shared by the Adj-RIB-In and every client's queue).
func TestPackUpdatesDoesNotMutateAttrs(t *testing.T) {
	attrs := batchAttrs(100)
	attrs.Communities = []Community{MakeCommunity(47065, 1)}
	attrs.HasMED, attrs.MED = true, 50
	snapshot := attrs.Clone()
	routes := []AttrRoute{
		{NLRI: NLRI{Prefix: batchPrefix(t, "10.0.0.0/24")}, Attrs: attrs},
		{NLRI: NLRI{Prefix: batchPrefix(t, "10.0.1.0/24")}, Attrs: attrs},
	}
	out := PackUpdates([]NLRI{{Prefix: batchPrefix(t, "10.9.0.0/24")}}, routes, Options{AS4: true})
	if !reflect.DeepEqual(attrs.Clone(), snapshot) {
		t.Fatalf("PackUpdates mutated attrs:\n got %+v\nwant %+v", attrs, snapshot)
	}
	if len(out) != 2 || out[1].Attrs != attrs {
		t.Fatalf("packed update should alias the caller's attrs (documented contract)")
	}
}

// TestAppendRunMatchesPackGrouped: for a single-attrs run AppendRun
// must write exactly the bytes PackGrouped's messages encode to — same
// split points under both codecs, withdrawals first — from one NLRI up
// to a run that overflows several frames, with attributes that leave
// room for little else, and without allocating.
func TestAppendRunMatchesPackGrouped(t *testing.T) {
	fat := batchAttrs(100)
	for i := 0; i < 900; i++ {
		fat.Communities = append(fat.Communities, MakeCommunity(47065, uint16(i)))
	}
	for _, attrs := range []*Attrs{batchAttrs(100), fat, nil} {
		for _, n := range []int{0, 1, 2, 700, 2000} {
			var wd, reach []NLRI
			for i := 0; i < n; i++ {
				p := batchPrefix(t, fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
				wd = append(wd, NLRI{Prefix: p, ID: PathID(i)})
				reach = append(reach, NLRI{Prefix: p, ID: PathID(i + 1)})
			}
			for _, opt := range []Options{{AS4: true}, {AddPath: true}} {
				got, msgs, err := AppendRun([]byte("prefix"), wd, attrs, reach, opt)
				if err != nil {
					t.Fatal(err)
				}
				want := []byte("prefix")
				upds := PackGrouped(wd, []AttrGroup{{Attrs: attrs, NLRIs: reach}}, opt)
				for _, u := range upds {
					if want, err = AppendMessage(want, u, opt); err != nil {
						t.Fatal(err)
					}
				}
				if msgs != len(upds) || !bytes.Equal(got, want) {
					t.Fatalf("attrs %v, %d NLRIs, %+v: AppendRun wrote %d messages (%d bytes), PackGrouped %d (%d bytes)",
						attrs != nil, n, opt, msgs, len(got), len(upds), len(want))
				}
			}
		}
	}
	wd := []NLRI{{Prefix: batchPrefix(t, "10.1.0.0/24")}}
	reach := []NLRI{{Prefix: batchPrefix(t, "10.2.0.0/24")}}
	attrs, buf := batchAttrs(100), make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() { AppendRun(buf, wd, attrs, reach, Options{AS4: true}) }); allocs != 0 {
		t.Fatalf("AppendRun allocates %.0f times for one withdrawal and one announcement", allocs)
	}
}

// TestAppendGroupsMatchesPackGrouped: given one group per attribute set,
// AppendGroups writes exactly the bytes of the PackGrouped messages that
// encode and counts their NLRIs. A set that fits beside a /24 without a
// path ID but not with one leaves out its messages under ADD-PATH alone,
// and the withdrawals and the other groups around it, a one-NLRI group
// among them, still go.
func TestAppendGroupsMatchesPackGrouped(t *testing.T) {
	tight := batchAttrs(300)
	for b, _ := MarshalAttrs(tight, DefaultOptions); len(b) <= maxBodyBudget-8; b, _ = MarshalAttrs(tight, DefaultOptions) {
		tight.Communities = append(tight.Communities, MakeCommunity(47065, uint16(len(tight.Communities))))
	}
	lone := []NLRI{{Prefix: batchPrefix(t, "10.200.0.0/16"), ID: 7}}
	groups := []AttrGroup{{Attrs: batchAttrs(100)}, {Attrs: tight}, {Attrs: batchAttrs(200)}, {Attrs: batchAttrs(400), NLRIs: lone}}
	var wd []NLRI
	for i := 0; i < 2000; i++ {
		n := NLRI{Prefix: batchPrefix(t, fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)), ID: 7}
		wd = append(wd, n)
		if g := &groups[i%3]; g.Attrs != tight || i%30 == 1 {
			g.NLRIs = append(g.NLRIs, n)
		}
	}
	for _, opt := range []Options{{AS4: true}, {AS4: true, AddPath: true}} {
		got, counts := AppendGroups([]byte("prefix"), wd, groups, opt, nil)
		want, wantCounts, left := []byte("prefix"), []int(nil), 0
		for _, u := range PackGrouped(wd, groups, opt) {
			out, err := AppendMessage(want, u, opt)
			if err != nil {
				if !opt.AddPath || u.Attrs != tight {
					t.Fatalf("%+v: %v", opt, err)
				}
				left += len(u.Reach)
				continue
			}
			want, wantCounts = out, append(wantCounts, len(u.Withdrawn)+len(u.Reach))
		}
		if !bytes.Equal(got, want) || !slices.Equal(counts, wantCounts) {
			t.Fatalf("%+v: AppendGroups wrote %d messages (%d bytes), PackGrouped %d (%d bytes)",
				opt, len(counts), len(got), len(wantCounts), len(want))
		}
		wantLeft := 0
		if opt.AddPath {
			wantLeft = len(groups[1].NLRIs)
		}
		if left != wantLeft {
			t.Fatalf("%+v: %d announcements left out, want %d", opt, left, wantLeft)
		}
	}
	buf, counts := make([]byte, 0, 1<<20), make([]int, 0, 4096)
	if allocs := testing.AllocsPerRun(10, func() { AppendGroups(buf, wd, groups, DefaultOptions, counts) }); allocs != 0 {
		t.Fatalf("AppendGroups allocates %.0f times into buffers with room", allocs)
	}
}
