package compiled

import (
	"net/netip"
	"strings"
	"testing"

	"peering/internal/wire"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func attrsWithPath(path ...uint32) *wire.Attrs {
	return &wire.Attrs{
		Origin:  wire.OriginIGP,
		ASPath:  []wire.Segment{{Type: wire.SegSequence, ASNs: path}},
		NextHop: netip.MustParseAddr("10.0.0.1"),
	}
}

func TestPrefixRulesFirstMatchWinsAcrossCoverage(t *testing.T) {
	// A deny on the /24 is listed before a permit on the covering /19:
	// source order must win even though the /24 is the longer match.
	f := Compile(&RuleSet{
		DefaultDeny: true,
		Prefixes: []PrefixRule{
			{Prefix: pfx("184.164.224.0/24"), Permit: false},
			{Prefix: pfx("184.164.224.0/19"), Le: 24, Permit: true},
		},
	})
	if f.MatchPrefix(pfx("184.164.224.0/24")) {
		t.Fatal("first-listed deny /24 must win over later permit /19")
	}
	if !f.MatchPrefix(pfx("184.164.225.0/24")) {
		t.Fatal("sibling /24 under the permit /19 must pass")
	}
	if f.MatchPrefix(pfx("184.164.224.0/25")) {
		t.Fatal("/25 beyond the permit's le 24 must fall to default deny")
	}
	if f.MatchPrefix(pfx("8.8.8.0/24")) {
		t.Fatal("uncovered prefix must fall to default deny")
	}
}

func TestPrefixRulesGeLeAndDefaults(t *testing.T) {
	f := Compile(&RuleSet{Prefixes: []PrefixRule{
		{Prefix: pfx("10.0.0.0/8"), Ge: 16, Le: 24, Permit: true},
		{Prefix: pfx("10.0.0.0/8"), Ge: 8, Le: 32, Permit: false},
	}})
	for _, tc := range []struct {
		p    string
		want bool
	}{
		{"10.1.0.0/16", true},  // inside [16,24] → first rule permits
		{"10.1.2.0/24", true},  //
		{"10.0.0.0/12", false}, // below ge 16 → second rule denies
		{"10.1.2.3/32", false}, // above le 24 → second rule denies
		{"11.0.0.0/16", true},  // uncovered → default permit
	} {
		if got := f.MatchPrefix(pfx(tc.p)); got != tc.want {
			t.Errorf("MatchPrefix(%s) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestOriginValidation(t *testing.T) {
	f := Compile(&RuleSet{Origins: []OriginRule{
		{Prefix: pfx("96.0.0.0/16"), MaxLen: 24, Origin: 64500},
		{Prefix: pfx("96.0.0.0/16"), MaxLen: 16, Origin: 64501},
	}})
	for _, tc := range []struct {
		p      string
		origin uint32
		want   OriginState
	}{
		{"96.0.0.0/16", 64500, OriginValid},
		{"96.0.0.0/16", 64501, OriginValid},
		{"96.0.1.0/24", 64500, OriginValid},   // within maxlen 24
		{"96.0.1.0/24", 64501, OriginInvalid}, // 64501 capped at /16
		{"96.0.1.0/25", 64500, OriginInvalid}, // beyond every maxlen
		{"96.0.0.0/16", 64502, OriginInvalid}, // covered, wrong origin
		{"97.0.0.0/16", 64500, OriginUnknown}, // uncovered
	} {
		if got := f.Origin(pfx(tc.p), tc.origin); got != tc.want {
			t.Errorf("Origin(%s, %d) = %v, want %v", tc.p, tc.origin, got, tc.want)
		}
	}
	// Verdict maps invalid → reject, unknown → accept.
	if v := f.Verdict(pfx("96.0.1.0/24"), attrsWithPath(3356, 64501), Peer{AS: 3356}); v.Accept || v.Class != ClassOrigin {
		t.Fatalf("hijacked origin: verdict %+v, want origin reject", v)
	}
	if v := f.Verdict(pfx("97.0.0.0/16"), attrsWithPath(3356, 64999), Peer{AS: 3356}); !v.Accept {
		t.Fatalf("unknown origin state must pass, got %+v", v)
	}
}

// TestOriginNestedEntries pins the "some covering entry" semantics: an
// aggregate's authorization extends to more-specifics even when a
// narrower entry for a different origin nests inside it. (A scan that
// consults only the most specific covering entry gets this wrong.)
func TestOriginNestedEntries(t *testing.T) {
	aggregate := OriginRule{Prefix: pfx("100.64.0.0/19"), MaxLen: 32, Origin: 47065}
	nested := OriginRule{Prefix: pfx("100.64.5.0/24"), MaxLen: 32, Origin: 64500}
	f := Compile(&RuleSet{Origins: []OriginRule{aggregate, nested}})
	for _, tc := range []struct {
		p      string
		origin uint32
		want   OriginState
	}{
		{"100.64.5.0/24", 64500, OriginValid},   // the nested entry's own origin
		{"100.64.5.0/24", 47065, OriginValid},   // the aggregate reaches under it
		{"100.64.0.0/19", 64500, OriginInvalid}, // the /24 does not widen to the /19
		{"100.64.0.0/18", 47065, OriginUnknown}, // wider than anything listed: not Valid
	} {
		if got := f.Origin(pfx(tc.p), tc.origin); got != tc.want {
			t.Errorf("Origin(%s, %d) = %v, want %v", tc.p, tc.origin, got, tc.want)
		}
	}
	// Without the aggregate, only the nested entry's origin remains.
	f = Compile(&RuleSet{Origins: []OriginRule{nested}})
	if got := f.Origin(pfx("100.64.5.0/24"), 47065); got != OriginInvalid {
		t.Errorf("aggregate's origin under the nested entry alone = %v, want invalid", got)
	}
	if got := f.Origin(pfx("100.64.5.0/24"), 64500); got != OriginValid {
		t.Errorf("nested entry's origin = %v once the aggregate is gone, want valid", got)
	}
}

// matchReference is a router prefix-list's linear scan — first rule in
// source order that covers p with mask length in its [ge, le] wins —
// kept as the semantic oracle for MatchPrefix.
func matchReference(rules []PrefixRule, permitDefault bool, p netip.Prefix) bool {
	for _, r := range rules {
		ge, le := r.Ge, r.Le
		if ge == 0 {
			ge = r.Prefix.Bits()
		}
		if le == 0 {
			le = r.Prefix.Bits()
		}
		if p.Bits() < ge || p.Bits() > le {
			continue
		}
		if !r.Prefix.Contains(p.Addr()) || r.Prefix.Bits() > p.Bits() {
			continue
		}
		return r.Permit
	}
	return permitDefault
}

// originReference is a ROA table's linear scan: Valid if some
// authorization covering p names origin at p's length, Invalid if one
// covers p but none does, Unknown if none covers p — kept as the
// semantic oracle for Origin.
func originReference(rules []OriginRule, p netip.Prefix, origin uint32) OriginState {
	state := OriginUnknown
	for _, r := range rules {
		if !r.Prefix.IsValid() || !r.Prefix.Contains(p.Addr()) || r.Prefix.Bits() > p.Bits() {
			continue
		}
		state = OriginInvalid
		if r.Origin == origin && p.Bits() <= max(r.MaxLen, r.Prefix.Bits()) {
			return OriginValid
		}
	}
	return state
}

// TestMatchPrefixMatchesLinearReference drives MatchPrefix against the
// linear scan over randomized rule lists and probes, under both
// defaults, with IPv4 rules, IPv6 rules and both at once.
func TestMatchPrefixMatchesLinearReference(t *testing.T) {
	rnd := func(seed *uint64) uint64 { // xorshift, deterministic
		*seed ^= *seed << 13
		*seed ^= *seed >> 7
		*seed ^= *seed << 17
		return *seed
	}
	// prefix lays the same random bits out as an IPv4 prefix or as one
	// under 2001:db8::/32, bits longer by 32, so both families get rules
	// that nest and probes that land in them.
	prefix := func(v uint64, bits int, v6 bool) netip.Prefix {
		b := [4]byte{byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32)}
		if !v6 {
			return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
		}
		a := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, b[0], b[1], b[2], b[3]})
		return netip.PrefixFrom(a, 32+bits).Masked()
	}
	seed := uint64(20140827)
	for trial := 0; trial < 90; trial++ {
		// trial%3: IPv4 only, IPv6 only, or a family per rule and probe.
		family := func(v uint64) bool { return trial%3 == 1 || trial%3 == 2 && v>>50&1 == 1 }
		var rules []PrefixRule
		n := int(rnd(&seed)%20) + 1
		for i := 0; i < n; i++ {
			v := rnd(&seed)
			p := prefix(v, int(v%25), family(v)) // /0../24 (IPv4), /32../56 (IPv6)
			r := PrefixRule{Prefix: p, Permit: v&1 == 0}
			if v&2 != 0 {
				r.Ge = p.Bits() + int(v>>40%8)
			}
			if v&4 != 0 {
				r.Le = min(p.Addr().BitLen(), p.Bits()+int(v>>43%12))
			}
			rules = append(rules, r)
		}
		permitDefault := trial%2 == 0
		f := Compile(&RuleSet{Prefixes: rules, DefaultDeny: !permitDefault})
		for probe := 0; probe < 200; probe++ {
			v := rnd(&seed)
			p := prefix(v, int(v%33), family(v))
			// Half the probes land inside a rule's space so matches are common.
			if probe%2 == 0 {
				base := rules[probe%len(rules)].Prefix
				bits := base.Bits() + int(v%uint64(base.Addr().BitLen()+1-base.Bits()))
				p = netip.PrefixFrom(base.Addr(), bits).Masked()
			}
			want := matchReference(rules, permitDefault, p)
			if got := f.MatchPrefix(p); got != want {
				t.Fatalf("trial %d: MatchPrefix(%v) = %v, reference says %v\nrules: %+v (default %v)",
					trial, p, got, want, rules, permitDefault)
			}
		}
	}
}

func TestPeerlockAdjacency(t *testing.T) {
	f := Compile(&RuleSet{Peerlock: []PeerlockRule{
		{Protected: 174, Allowed: []uint32{3356, 2914}},
	}})
	ok := []*wire.Attrs{
		attrsWithPath(3356, 174, 2914, 64500), // both neighbors allowed
		attrsWithPath(174, 3356, 64500),       // path edge on the left
		attrsWithPath(3356, 174),              // path edge on the right
		attrsWithPath(3356, 174, 174, 2914),   // own prepend
		attrsWithPath(3356, 64500),            // protected AS absent
	}
	for i, a := range ok {
		if v := f.Verdict(pfx("8.8.8.0/24"), a, Peer{AS: 3356}); !v.Accept {
			t.Errorf("legit path %d (%s) rejected: %+v", i, a.PathString(), v)
		}
	}
	bad := []*wire.Attrs{
		attrsWithPath(3356, 64600, 174, 2914, 64500), // 64600 left of 174
		attrsWithPath(3356, 174, 64601, 64500),       // 64601 right of 174
		attrsWithPath(64600, 174, 64601),             // sandwiched (poisoned)
	}
	for i, a := range bad {
		if v := f.Verdict(pfx("8.8.8.0/24"), a, Peer{AS: 3356}); v.Accept || v.Class != ClassPeerlock {
			t.Errorf("leaked path %d (%s): verdict %+v, want peerlock reject", i, a.PathString(), v)
		}
	}
}

func TestPeerlockLiteTransitContext(t *testing.T) {
	f := Compile(&RuleSet{NoTransit: []uint32{3257}})
	a := attrsWithPath(64500, 3257, 64501)
	if v := f.Verdict(pfx("8.8.8.0/24"), a, Peer{AS: 64500, Transit: false}); v.Accept || v.Class != ClassPeerlockLite {
		t.Fatalf("tier-1 in path from non-transit peer: %+v, want peerlock_lite reject", v)
	}
	if v := f.Verdict(pfx("8.8.8.0/24"), a, Peer{AS: 64500, Transit: true}); !v.Accept {
		t.Fatalf("same path from a transit provider must pass, got %+v", v)
	}
	if v := f.Verdict(pfx("8.8.8.0/24"), attrsWithPath(64500, 64501), Peer{AS: 64500}); !v.Accept {
		t.Fatalf("path without protected AS must pass, got %+v", v)
	}
}

// memoLen counts the entries of f's path memo.
func memoLen(f *Filter) int {
	n := 0
	f.paths.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestVerdictPathLeavesNoMemo: VerdictPath is handed whatever a client
// sent, one freshly decoded attribute set per announcement. Ten
// thousand distinct pointers must leave the memo empty — at the parent
// each one was stored, and pinned, until the next policy reload — and
// must be judged exactly as Verdict judges the path half of the same
// route (a rule set with no prefix or origin rules, so only the path
// families can fire).
func TestVerdictPathLeavesNoMemo(t *testing.T) {
	f := Compile(&RuleSet{
		Peerlock:  []PeerlockRule{{Protected: 174, Allowed: []uint32{3356, 2914}}},
		NoTransit: []uint32{3257},
	})
	paths := [][]uint32{
		{47065},
		{47065, 47065, 64512},
		{47065, 174, 64999},   // peerlock: stub beside a protected AS
		{47065, 3356, 174},    // protected AS beside an allowed partner
		{47065, 3257},         // no-transit AS behind a non-transit peer
		{47065, 3257, 174, 9}, // both families
	}
	const n = 10_000
	for i := 0; i < n; i++ {
		a := attrsWithPath(paths[i%len(paths)]...)
		for _, peer := range []Peer{{AS: 47065}, {AS: 47065, Transit: true}} {
			got := f.VerdictPath(a, peer)
			if memoLen(f) != 0 {
				t.Fatalf("VerdictPath memoised call %d: the memo holds %d entries", i, memoLen(f))
			}
			if want := f.Verdict(pfx("8.8.8.0/24"), a, peer); got != want {
				t.Fatalf("path %v peer %+v: VerdictPath %+v, Verdict %+v", paths[i%len(paths)], peer, got, want)
			}
			f.paths.Clear() // Verdict's own entry, so the next check starts from empty
		}
	}
	leak := attrsWithPath(paths[2]...)
	if allocs := testing.AllocsPerRun(100, func() { f.VerdictPath(leak, Peer{}) }); allocs != 0 {
		t.Fatalf("VerdictPath allocates %.0f times per call", allocs)
	}
}

func TestNilFilterAndNilAttrs(t *testing.T) {
	var f *Filter
	if v := f.Verdict(pfx("8.8.8.0/24"), nil, Peer{}); !v.Accept {
		t.Fatal("nil filter must accept everything")
	}
	if got := f.Status(); got.Enabled {
		t.Fatal("nil filter must report Enabled false")
	}
	f2 := Compile(&RuleSet{Peerlock: []PeerlockRule{{Protected: 174}}})
	if v := f2.Verdict(pfx("8.8.8.0/24"), nil, Peer{}); !v.Accept {
		t.Fatal("nil attrs must skip path checks")
	}
}

func TestEngineSwap(t *testing.T) {
	var e Engine
	if e.Current() != nil {
		t.Fatal("zero engine must start unfiltered")
	}
	fa := e.Load(&RuleSet{DefaultDeny: true})
	if e.Current() != fa || fa.Generation() != 1 {
		t.Fatalf("first load: current=%v gen=%d", e.Current(), fa.Generation())
	}
	fb := e.Load(&RuleSet{})
	if e.Current() != fb || fb.Generation() != 2 {
		t.Fatalf("second load: current=%v gen=%d", e.Current(), fb.Generation())
	}
	// The displaced filter stays usable for callers that loaded it.
	if fa.MatchPrefix(pfx("8.8.8.0/24")) {
		t.Fatal("old filter must keep its default-deny semantics")
	}
	if e.Load(nil) != nil || e.Current() != nil {
		t.Fatal("Load(nil) must uninstall filtering")
	}
}

func TestParseRules(t *testing.T) {
	const text = `
# testbed safety rules
default deny
prefix deny   184.164.224.0/24         # carve-out listed first: it wins
prefix permit 184.164.224.0/19 le 24   # the /19, /24s included
roa 96.0.0.0/16 maxlen 24 origin 64500
peerlock 174 allow 3356 2914
peerlock-lite 174 3257
`
	rs, err := ParseRules(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !rs.DefaultDeny || len(rs.Prefixes) != 2 || len(rs.Origins) != 1 ||
		len(rs.Peerlock) != 1 || len(rs.NoTransit) != 2 {
		t.Fatalf("parsed shape: %+v", rs)
	}
	if rs.Prefixes[0].Permit || rs.Prefixes[1].Le != 24 || !rs.Prefixes[1].Permit {
		t.Fatalf("prefix rules: %+v", rs.Prefixes)
	}
	if rs.Origins[0].MaxLen != 24 || rs.Origins[0].Origin != 64500 {
		t.Fatalf("origin rule: %+v", rs.Origins[0])
	}
	if rs.Peerlock[0].Protected != 174 || len(rs.Peerlock[0].Allowed) != 2 {
		t.Fatalf("peerlock rule: %+v", rs.Peerlock[0])
	}
	f := Compile(rs)
	if !f.MatchPrefix(pfx("184.164.225.0/24")) || f.MatchPrefix(pfx("184.164.224.0/24")) {
		t.Fatal("compiled parse output disagrees with rule order")
	}

	for _, bad := range []string{
		"prefix permit not-a-cidr",
		"prefix allow 10.0.0.0/8",
		"prefix permit 10.0.0.0/8 ge 24 le 16",
		"prefix permit 10.0.0.0/8 ge 64",
		"roa 96.0.0.0/16 maxlen 24",
		"roa 96.0.0.0/16 maxlen 8 origin 1",
		"peerlock 174 3356",
		"peerlock-lite",
		"frobnicate 1 2 3",
		"default maybe",
	} {
		if _, err := ParseRules(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseRules(%q) succeeded, want error", bad)
		}
	}
}

func TestStatusShape(t *testing.T) {
	var e Engine
	f := e.Load(&RuleSet{
		DefaultDeny: true,
		Prefixes:    []PrefixRule{{Prefix: pfx("10.0.0.0/8"), Permit: true}},
		Origins:     []OriginRule{{Prefix: pfx("96.0.0.0/16"), Origin: 1}},
		Peerlock:    []PeerlockRule{{Protected: 174}},
		NoTransit:   []uint32{3257},
	})
	st := f.Status()
	if !st.Enabled || st.Generation != 1 || !st.DefaultDeny ||
		st.PrefixRules != 1 || st.OriginRules != 1 || st.PeerlockRules != 1 || st.NoTransitASes != 1 {
		t.Fatalf("Status = %+v", st)
	}
}

func TestMetroLocalRule(t *testing.T) {
	ams := wire.MakeCommunity(47065, 101)
	phx := wire.MakeCommunity(47065, 102)
	f := Compile(&RuleSet{Metros: []MetroRule{{Name: "amsterdam", Community: ams}}})

	tagged := attrsWithPath(3356, 174)
	tagged.Communities = []wire.Community{0x2FB90001, ams}
	v := f.Verdict(pfx("96.0.0.0/24"), tagged, Peer{})
	if v.Accept || v.Class != ClassMetro {
		t.Fatalf("own-metro tag: verdict %+v, want ClassMetro reject", v)
	}
	if name, ok := f.MatchMetro(tagged); !ok || name != "amsterdam" {
		t.Fatalf("MatchMetro = %q, %v; want amsterdam, true", name, ok)
	}

	other := attrsWithPath(3356, 174)
	other.Communities = []wire.Community{phx}
	if v := f.Verdict(pfx("96.0.0.0/24"), other, Peer{}); !v.Accept {
		t.Fatalf("foreign metro tag must pass: %+v", v)
	}
	if _, ok := f.MatchMetro(other); ok {
		t.Fatal("MatchMetro matched a community not in the rule set")
	}
	if v := f.Verdict(pfx("96.0.0.0/24"), attrsWithPath(3356), Peer{}); !v.Accept {
		t.Fatalf("untagged route must pass: %+v", v)
	}
	if _, ok := f.MatchMetro(nil); ok {
		t.Fatal("MatchMetro(nil) must not match")
	}
}

func TestParseMetroLocal(t *testing.T) {
	rs, err := ParseRules(strings.NewReader("metro-local amsterdam community 47065:101\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Metros) != 1 || rs.Metros[0].Name != "amsterdam" ||
		rs.Metros[0].Community != wire.MakeCommunity(47065, 101) {
		t.Fatalf("parsed metro rule: %+v", rs.Metros)
	}
	f := Compile(rs)
	if f.Status().MetroRules != 1 {
		t.Fatalf("status metro rules = %d, want 1", f.Status().MetroRules)
	}
	for _, bad := range []string{
		"metro-local amsterdam 47065:101",
		"metro-local amsterdam community 70000:1",
		"metro-local amsterdam community x:y",
	} {
		if _, err := ParseRules(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseRules(%q) accepted malformed directive", bad)
		}
	}
}
