package wire

import (
	"bytes"
	"fmt"
	"net/netip"
	"sync"
	"testing"
)

// testAttrs builds a representative attribute set; vary selects among a
// few distinct canonical forms.
func testAttrs(vary int) *Attrs {
	a := &Attrs{
		Origin:      OriginIGP,
		ASPath:      []Segment{{Type: SegSequence, ASNs: []uint32{196615, 3356, uint32(100 + vary)}}},
		NextHop:     netip.MustParseAddr("80.249.208.10"),
		Communities: []Community{CommNoExport, MakeCommunity(47065, uint16(vary))},
	}
	if vary%2 == 0 {
		a.MED, a.HasMED = uint32(vary), true
	}
	return a
}

func TestInternIdentity(t *testing.T) {
	tbl := NewInternTable()
	a := testAttrs(1)
	b := testAttrs(1) // equal content, distinct pointer
	c := testAttrs(2)

	ca := tbl.Intern(a)
	if ca != a {
		t.Fatalf("first intern of a returned a different pointer")
	}
	if got := tbl.Intern(a); got != ca {
		t.Fatalf("re-intern of same pointer not idempotent")
	}
	if got := tbl.Intern(b); got != ca {
		t.Fatalf("equal-content attrs did not resolve to canonical pointer")
	}
	if got := tbl.Intern(c); got == ca {
		t.Fatalf("distinct attrs collapsed to one pointer")
	}
	if n := tbl.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	hits, misses := tbl.Stats()
	if misses != 2 || hits != 2 {
		t.Fatalf("Stats = (%d hits, %d misses), want (2, 2)", hits, misses)
	}
	if tbl.Intern(nil) != nil {
		t.Fatalf("Intern(nil) != nil")
	}
	var nilTbl *InternTable
	if nilTbl.Intern(a) != a {
		t.Fatalf("nil table must pass attrs through")
	}
}

// TestInternConcurrent hammers one table from many goroutines with a
// mix of shared and distinct attribute sets; run under -race this is
// the interner's concurrency proof.
// TestInternLookup: Lookup finds what Intern stored, by content, and
// stores nothing itself — so a scratch value costs no allocation.
func TestInternLookup(t *testing.T) {
	tbl := NewInternTable()
	if got := tbl.Lookup(testAttrs(1)); got != nil {
		t.Fatalf("Lookup in an empty table returned %p", got)
	}
	if tbl.Len() != 0 {
		t.Fatalf("Lookup stored its argument: Len = %d", tbl.Len())
	}
	canon := tbl.Intern(testAttrs(1))
	scratch := *testAttrs(1)
	if got := tbl.Lookup(&scratch); got != canon {
		t.Fatalf("Lookup of equal content = %p, want the canonical %p", got, canon)
	}
	if got := tbl.Lookup(testAttrs(2)); got != nil || tbl.Len() != 1 {
		t.Fatalf("Lookup of an unknown set = %p, Len = %d", got, tbl.Len())
	}
	if hits, misses := tbl.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits, misses = %d, %d; want 1, 1", hits, misses)
	}
	path, comms := scratch.ASPath, scratch.Communities
	if allocs := testing.AllocsPerRun(100, func() {
		a := Attrs{ASPath: path, NextHop: scratch.NextHop, Communities: comms}
		tbl.Lookup(&a)
	}); allocs != 0 {
		t.Fatalf("Lookup of a stack value allocates %.0f times", allocs)
	}
}

func TestInternConcurrent(t *testing.T) {
	tbl := NewInternTable()
	const goroutines = 16
	const distinct = 32
	var wg sync.WaitGroup
	canon := make([][]*Attrs, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make([]*Attrs, distinct)
			for i := 0; i < 200; i++ {
				v := i % distinct
				p := tbl.Intern(testAttrs(v))
				if got[v] == nil {
					got[v] = p
				} else if got[v] != p {
					t.Errorf("goroutine %d: intern of variant %d returned two pointers", g, v)
					return
				}
				tbl.Len() // concurrent reader
			}
			canon[g] = got
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 1; g < goroutines; g++ {
		for v := 0; v < distinct; v++ {
			if canon[g][v] != canon[0][v] {
				t.Fatalf("goroutines disagree on canonical pointer for variant %d", v)
			}
		}
	}
	if n := tbl.Len(); n != distinct {
		t.Fatalf("Len = %d, want %d", n, distinct)
	}
}

// TestEqualCanonicalForms checks Equal against representation details
// the canonical encoder normalizes away.
func TestEqualCanonicalForms(t *testing.T) {
	base := testAttrs(1)
	t.Run("empty segments skipped", func(t *testing.T) {
		b := testAttrs(1)
		b.ASPath = append([]Segment{{Type: SegSet, ASNs: nil}}, b.ASPath...)
		b.ASPath = append(b.ASPath, Segment{Type: SegSequence, ASNs: []uint32{}})
		if !base.Equal(b) || !b.Equal(base) {
			t.Fatal("empty AS_PATH segments must not affect equality")
		}
		if base.canonicalHash() != b.canonicalHash() {
			t.Fatal("hash differs across empty-segment insertion")
		}
	})
	t.Run("unknown flag canonicalization", func(t *testing.T) {
		a, b := testAttrs(3), testAttrs(3)
		a.Unknown = []RawAttr{{Flags: flagOptional | flagTransitive, Code: 99, Value: []byte{1, 2}}}
		// Same attr as decoded from a sender that set extended-length and
		// partial: canonically identical.
		b.Unknown = []RawAttr{{Flags: flagOptional | flagTransitive | flagPartial | flagExtLen, Code: 99, Value: []byte{1, 2}}}
		if !a.Equal(b) {
			t.Fatal("canonically equal unknown attrs compared unequal")
		}
		if a.canonicalHash() != b.canonicalHash() {
			t.Fatal("hash differs across unknown flag normalization")
		}
		b.Unknown[0].Value = []byte{1, 3}
		if a.Equal(b) {
			t.Fatal("different unknown values compared equal")
		}
	})
	t.Run("med gated on presence", func(t *testing.T) {
		a, b := testAttrs(1), testAttrs(1) // vary=1: HasMED false
		a.MED, b.MED = 7, 9
		if !a.Equal(b) {
			t.Fatal("MED value must be ignored when HasMED is false")
		}
		b.HasMED = true
		if a.Equal(b) {
			t.Fatal("presence mismatch must compare unequal")
		}
	})
	t.Run("equal implies same marshal", func(t *testing.T) {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				a, b := testAttrs(i), testAttrs(j)
				ma, err := a.marshal(Options{AS4: true})
				if err != nil {
					t.Fatal(err)
				}
				mb, err := b.marshal(Options{AS4: true})
				if err != nil {
					t.Fatal(err)
				}
				if a.Equal(b) != bytes.Equal(ma, mb) {
					t.Fatalf("Equal(%d,%d)=%v but marshal equality is %v", i, j, a.Equal(b), bytes.Equal(ma, mb))
				}
			}
		}
	})
}

// TestPooledBodyNotAliased proves the decode ownership contract: a
// message read through the pooled ReadMessage path (including its
// unknown attributes, the only variable-length bytes carried through
// verbatim) must not alias the pooled body, which is scribbled over by
// the very next read.
func TestPooledBodyNotAliased(t *testing.T) {
	mk := func(fill byte) *Update {
		val := bytes.Repeat([]byte{fill}, 64)
		a := testAttrs(0)
		a.Unknown = []RawAttr{{Flags: flagOptional | flagTransitive, Code: 240, Value: val}}
		return &Update{
			Attrs: a,
			Reach: []NLRI{{Prefix: netip.MustParsePrefix("184.164.224.0/24")}},
		}
	}
	var stream bytes.Buffer
	for i := 0; i < 2; i++ {
		b, err := Marshal(mk(byte(0xA0+i)), DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(b)
	}

	m1, err := ReadMessage(&stream, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	u1 := m1.(*Update)
	// Simulate RIB storage of the first message's attrs via an interner,
	// then decode the second message: its pooled body reuses (and
	// overwrites) the first one's.
	tbl := NewInternTable()
	stored := tbl.Intern(u1.Attrs)
	if _, err := ReadMessage(&stream, DefaultOptions); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xA0}, 64)
	if !bytes.Equal(stored.Unknown[0].Value, want) {
		t.Fatalf("stored attrs alias the recycled decode buffer: got % x…", stored.Unknown[0].Value[:8])
	}
}

// FuzzAttrsEqual holds the central interning invariant against the real
// encoder: for any two decodable attribute blocks, Equal(a, b) ⟺ the
// blocks marshal to identical canonical wire form under Options{AS4:
// true}. Hash consistency (Equal ⟹ same canonicalHash) rides along.
func FuzzAttrsEqual(f *testing.F) {
	// Seeds: canonical attribute blocks from the FuzzParseMessage corpus
	// messages, plus variants exercising every attribute kind.
	seedAttrs := []*Attrs{
		{
			Origin:      OriginIGP,
			ASPath:      []Segment{{Type: SegSequence, ASNs: []uint32{196615, 3356}}},
			NextHop:     netip.MustParseAddr("80.249.208.10"),
			Communities: []Community{CommNoExport},
		},
		testAttrs(0),
		testAttrs(1),
	}
	extra := testAttrs(2)
	extra.LocalPref, extra.HasLocalPref = 200, true
	extra.Atomic = true
	extra.Aggregator = &Aggregator{AS: 47065, Addr: netip.MustParseAddr("184.164.224.1")}
	extra.Unknown = []RawAttr{{Flags: flagOptional | flagTransitive, Code: 32, Value: []byte{0, 0, 0xb7, 0xd9, 0, 0, 0, 1}}}
	seedAttrs = append(seedAttrs, extra)
	var blocks [][]byte
	for _, a := range seedAttrs {
		b, err := MarshalAttrs(a, Options{AS4: true})
		if err != nil {
			f.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	for _, b1 := range blocks {
		for _, b2 := range blocks {
			f.Add(b1, b2)
		}
	}
	f.Fuzz(func(t *testing.T, d1, d2 []byte) {
		a1, err1 := ParseAttrs(d1, DefaultOptions)
		a2, err2 := ParseAttrs(d2, DefaultOptions)
		if err1 != nil || err2 != nil {
			return
		}
		m1, e1 := MarshalAttrs(a1, Options{AS4: true})
		m2, e2 := MarshalAttrs(a2, Options{AS4: true})
		eq, eqSym := a1.Equal(a2), a2.Equal(a1)
		if eq != eqSym {
			t.Fatalf("Equal is asymmetric: %v vs %v", eq, eqSym)
		}
		if !a1.Equal(a1) || !a2.Equal(a2) {
			t.Fatal("Equal is not reflexive")
		}
		if (e1 == nil) != (e2 == nil) {
			if eq {
				t.Fatalf("Equal attrs disagree on encodability: %v vs %v", e1, e2)
			}
			return
		}
		if e1 != nil {
			return // both unencodable; no canonical form to compare
		}
		if eq != bytes.Equal(m1, m2) {
			t.Fatalf("Equal=%v but canonical-marshal equality=%v\n a1 %s\n a2 %s\n m1 %x\n m2 %x",
				eq, bytes.Equal(m1, m2), attrsDebug(a1), attrsDebug(a2), m1, m2)
		}
		if eq && a1.canonicalHash() != a2.canonicalHash() {
			t.Fatalf("Equal attrs hash differently")
		}
	})
}

func attrsDebug(a *Attrs) string {
	return fmt.Sprintf("%+v", *a)
}
