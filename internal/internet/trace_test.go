package internet

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"

	"peering/internal/mrt"
	"peering/internal/wire"
)

// TestWriteTrace round-trips a small generated Internet through the
// trace writer and the MRT reader: every originated prefix appears
// exactly once, AS paths start at the announcing peer and end at the
// originating AS, and record timestamps are monotonic. The trace is byte
// for byte what PackGrouped's messages, marshaled one by one, give.
func TestWriteTrace(t *testing.T) {
	spec := Spec{Seed: 7, ASes: 300, Tier1s: 4, Transits: 30, CDNs: 4, Contents: 8, Prefixes: 4000}
	g := Generate(spec)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	st, err := WriteTrace(&buf, g, TraceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Routes != g.TotalPrefixes() {
		t.Fatalf("trace carries %d routes, graph originates %d", st.Routes, g.TotalPrefixes())
	}
	if st.Origins == 0 || st.Records == 0 || st.Bytes != uint64(buf.Len()) {
		t.Fatalf("implausible stats: %+v (buffer %d bytes)", st, buf.Len())
	}

	// The configured viewpoint defaulted to the first tier-1.
	var peerAS uint32
	for _, asn := range g.ASNs() {
		if g.AS(asn).Kind == KindTier1 {
			peerAS = asn
			break
		}
	}

	if want := packedTrace(t, g, peerAS); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace is %d bytes, PackGrouped + Marshal give %d, or the bytes differ", buf.Len(), len(want))
	}

	originOf := make(map[string]uint32) // prefix → expected origin ASN
	for _, asn := range g.ASNs() {
		for _, p := range g.AS(asn).Prefixes {
			originOf[p.String()] = asn
		}
	}

	r := mrt.NewReader(&buf)
	seen := make(map[string]bool)
	var last time.Time
	records := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if records > 0 && rec.Time.Before(last) {
			t.Fatalf("record %d timestamp %v precedes %v", records, rec.Time, last)
		}
		last = rec.Time
		records++
		m, err := mrt.ParseBGP4MP(rec)
		if err != nil {
			t.Fatal(err)
		}
		if m.PeerAS != peerAS {
			t.Fatalf("record from AS%d, want AS%d", m.PeerAS, peerAS)
		}
		upd, err := m.Update()
		if err != nil {
			t.Fatal(err)
		}
		path := upd.Attrs.ASList()
		if len(path) == 0 || path[0] != peerAS {
			t.Fatalf("path %v does not start at the announcing peer AS%d", path, peerAS)
		}
		origin := path[len(path)-1]
		for i := 1; i < len(path); i++ {
			if path[i] == path[i-1] {
				t.Fatalf("path %v repeats AS%d", path, path[i])
			}
		}
		for _, n := range upd.Reach {
			key := n.Prefix.String()
			if seen[key] {
				t.Fatalf("prefix %s announced twice", key)
			}
			seen[key] = true
			if want, ok := originOf[key]; !ok || want != origin {
				t.Fatalf("prefix %s announced with origin AS%d, originated by AS%d", key, origin, want)
			}
		}
	}
	if records != st.Records || len(seen) != st.Routes {
		t.Fatalf("read back %d records / %d prefixes, stats said %d / %d",
			records, len(seen), st.Records, st.Routes)
	}
}

// packedTrace is WriteTrace's output under the zero TraceConfig,
// written from PackGrouped's messages, each marshaled into a record.
func packedTrace(t *testing.T, g *Graph, peerAS uint32) []byte {
	t.Helper()
	var out bytes.Buffer
	mw := mrt.NewWriter(&out, nil)
	peerIP, localIP := netip.AddrFrom4([4]byte{10, 0, 0, 1}), netip.AddrFrom4([4]byte{10, 0, 0, 2})
	opts := wire.Options{AS4: true}
	ts := time.Date(2014, 10, 27, 0, 0, 0, 0, time.UTC)
	for _, asn := range g.ASNs() {
		a := g.AS(asn)
		attrs := &wire.Attrs{
			Origin:  wire.OriginIGP,
			ASPath:  []wire.Segment{{Type: wire.SegSequence, ASNs: g.pathFrom(peerAS, a)}},
			NextHop: peerIP,
		}
		var nlris []wire.NLRI
		for _, p := range a.Prefixes {
			nlris = append(nlris, wire.NLRI{Prefix: p})
		}
		for _, upd := range wire.PackGrouped(nil, []wire.AttrGroup{{Attrs: attrs, NLRIs: nlris}}, opts) {
			msg, err := wire.Marshal(upd, opts)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := (&mrt.BGP4MP{PeerAS: peerAS, LocalAS: 47065, PeerIP: peerIP, LocalIP: localIP, Message: msg, AS4: true}).Record(ts, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mw.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
			ts = ts.Add(time.Millisecond)
		}
	}
	return out.Bytes()
}

// TestFullTableSpecShape pins the Internet-scale spec's contract — ≥1M
// prefixes from tens of thousands of ASes — without generating it
// (that costs seconds and is the benchmark's job).
func TestFullTableSpecShape(t *testing.T) {
	spec := FullTableSpec()
	if spec.Prefixes < 1000000 {
		t.Fatalf("FullTableSpec originates %d prefixes, want ≥1M", spec.Prefixes)
	}
	if spec.ASes < 10000 {
		t.Fatalf("FullTableSpec has %d ASes, want tens of thousands", spec.ASes)
	}
	if spec.Tier1s+spec.Transits+spec.CDNs+spec.Contents >= spec.ASes {
		t.Fatalf("spec leaves no room for stub networks: %+v", spec)
	}
}

// TestPathFrom checks the provider-chain path construction directly: a
// stub's prefixes are heard with a path that climbs its first provider
// chain and never repeats an AS.
func TestPathFrom(t *testing.T) {
	g := NewGraph()
	g.AddAS(&AS{ASN: 1, Kind: KindTier1})
	g.AddAS(&AS{ASN: 10, Kind: KindTransit})
	g.AddAS(&AS{ASN: 100, Kind: KindStub})
	g.AddProviderCustomer(1, 10)
	g.AddProviderCustomer(10, 100)

	got := g.pathFrom(1, g.AS(100))
	want := []uint32{1, 10, 100}
	if len(got) != len(want) {
		t.Fatalf("pathFrom = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pathFrom = %v, want %v", got, want)
		}
	}
	// Origin == viewpoint collapses to a single hop, not [1, 1].
	if p := g.pathFrom(1, g.AS(1)); len(p) != 1 || p[0] != 1 {
		t.Fatalf("pathFrom(self) = %v, want [1]", p)
	}
}
