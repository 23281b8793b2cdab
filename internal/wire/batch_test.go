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

// readUpdates parses b, whole messages encoded under opt, back into
// UPDATEs, failing on anything else or on a message over MaxMsgLen.
func readUpdates(t *testing.T, b []byte, opt Options) []*Update {
	t.Helper()
	var out []*Update
	for r := bytes.NewReader(b); r.Len() > 0; {
		size := r.Len()
		m, err := ReadMessage(r, opt)
		if err != nil {
			t.Fatalf("message %d: %v", len(out), err)
		}
		if n := size - r.Len(); n > MaxMsgLen {
			t.Fatalf("message %d is %d bytes", len(out), n)
		}
		u, ok := m.(*Update)
		if !ok {
			t.Fatalf("message %d is a %v", len(out), m.Type())
		}
		out = append(out, u)
	}
	return out
}

// TestAppendGroupsOneMessagePerGroup: groups that fit ride one message
// each, in input order, their NLRIs in order. PackGrouped, the oracle of
// the tests below, also merges a set behind a second pointer whose
// encoding is the same.
func TestAppendGroupsOneMessagePerGroup(t *testing.T) {
	groups := []AttrGroup{
		{Attrs: batchAttrs(100), NLRIs: []NLRI{{Prefix: batchPrefix(t, "10.0.0.0/24")}, {Prefix: batchPrefix(t, "10.0.2.0/24")}}},
		{Attrs: batchAttrs(200), NLRIs: []NLRI{{Prefix: batchPrefix(t, "10.0.1.0/24")}}},
	}
	b, counts := AppendGroups(nil, nil, groups, Options{AS4: true}, nil)
	out := readUpdates(t, b, Options{AS4: true})
	if len(out) != 2 || !slices.Equal(counts, []int{2, 1}) {
		t.Fatalf("got %d updates counted %v, want 2 counted [2 1] (one per attribute group)", len(out), counts)
	}
	for i, g := range groups {
		if !slices.Equal(out[i].Reach, g.NLRIs) || out[i].Attrs.FirstAS() != g.Attrs.FirstAS() {
			t.Fatalf("message %d = %v from AS%d, want group %d's %v", i, out[i].Reach, out[i].Attrs.FirstAS(), i, g.NLRIs)
		}
	}
	twin := AttrGroup{Attrs: batchAttrs(100), NLRIs: []NLRI{{Prefix: batchPrefix(t, "10.0.3.0/24")}}}
	if packed := PackGrouped(nil, append(groups, twin), Options{AS4: true}); len(packed) != 2 || len(packed[0].Reach) != 3 {
		t.Fatalf("PackGrouped kept an identical set behind a second pointer apart: %+v", packed)
	}
}

func TestAppendRunWithdrawFirstAndOrdered(t *testing.T) {
	wd := []NLRI{
		{Prefix: batchPrefix(t, "10.1.0.0/24")},
		{Prefix: batchPrefix(t, "10.1.1.0/24")},
	}
	reach := []NLRI{{Prefix: batchPrefix(t, "10.2.0.0/24")}}
	b, msgs, err := AppendRun(nil, wd, batchAttrs(100), reach, Options{AS4: true})
	if err != nil {
		t.Fatal(err)
	}
	out := readUpdates(t, b, Options{AS4: true})
	if msgs != 2 || len(out) != 2 {
		t.Fatalf("got %d updates (%d counted), want 2", len(out), msgs)
	}
	if got := out[0].Withdrawn; !slices.Equal(got, wd) || len(out[0].Reach) != 0 {
		t.Fatalf("first message = %+v, want the withdrawals %v alone", out[0], wd)
	}
	if !slices.Equal(out[1].Reach, reach) || len(out[1].Withdrawn) != 0 {
		t.Fatalf("announce message = %+v", out[1])
	}
}

func TestAppendRunSplitsAtMaxMsgLen(t *testing.T) {
	// Enough /24s to overflow one 4096-byte frame (4 bytes each encoded,
	// 9 with ADD-PATH), all sharing one attribute set.
	attrs := batchAttrs(100)
	var reach []NLRI
	for i := 0; i < 2000; i++ {
		p := batchPrefix(t, fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
		reach = append(reach, NLRI{Prefix: p, ID: PathID(i)})
	}
	for _, opt := range []Options{{AS4: true}, {AS4: true, AddPath: true}} {
		b, msgs, err := AppendRun(nil, nil, attrs, reach, opt)
		if err != nil {
			t.Fatalf("opt %+v: %v", opt, err)
		}
		out := readUpdates(t, b, opt)
		if len(out) < 2 || msgs != len(out) {
			t.Fatalf("opt %+v: 2000 routes fit in %d message(s), %d counted?", opt, len(out), msgs)
		}
		// Order across the split must be preserved.
		var got []NLRI
		for _, u := range out {
			got = append(got, u.Reach...)
		}
		want := reach
		if !opt.AddPath { // a path ID does not cross a session without ADD-PATH
			want = nil
			for _, n := range reach {
				want = append(want, NLRI{Prefix: n.Prefix})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("opt %+v: %d NLRIs read back, want the %d sent in order", opt, len(got), len(want))
		}
	}
}

func TestAppendRunLargeWithdrawSplit(t *testing.T) {
	var wd []NLRI
	for i := 0; i < 1200; i++ {
		wd = append(wd, NLRI{Prefix: batchPrefix(t, fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))})
	}
	b, msgs, err := AppendRun(nil, wd, nil, nil, Options{AS4: true})
	if err != nil {
		t.Fatal(err)
	}
	out := readUpdates(t, b, Options{AS4: true})
	if len(out) < 2 || msgs != len(out) {
		t.Fatalf("1200 withdrawals fit in %d message(s), %d counted?", len(out), msgs)
	}
	var got []NLRI
	for _, u := range out {
		if len(u.Reach) != 0 || u.Attrs != nil {
			t.Fatalf("withdraw-only message carries announcements: %+v", u)
		}
		got = append(got, u.Withdrawn...)
	}
	if !slices.Equal(got, wd) {
		t.Fatalf("read back %d withdrawals, want the %d sent in order", len(got), len(wd))
	}
}

// TestAppendDoesNotMutateAttrs enforces the immutability contract: the
// encoders only read the attribute sets they are handed (the same
// pointer may be shared by the Adj-RIB-In and every client's queue).
func TestAppendDoesNotMutateAttrs(t *testing.T) {
	attrs := batchAttrs(100)
	attrs.Communities = []Community{MakeCommunity(47065, 1)}
	attrs.HasMED, attrs.MED = true, 50
	snapshot := attrs.Clone()
	wd := []NLRI{{Prefix: batchPrefix(t, "10.9.0.0/24")}}
	reach := []NLRI{{Prefix: batchPrefix(t, "10.0.0.0/24")}, {Prefix: batchPrefix(t, "10.0.1.0/24")}}
	if _, _, err := AppendRun(nil, wd, attrs, reach, Options{AS4: true}); err != nil {
		t.Fatal(err)
	}
	AppendGroups(nil, wd, []AttrGroup{{Attrs: attrs, NLRIs: reach}}, Options{AS4: true, AddPath: true}, nil)
	if !reflect.DeepEqual(attrs.Clone(), snapshot) {
		t.Fatalf("encoding mutated attrs:\n got %+v\nwant %+v", attrs, snapshot)
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
