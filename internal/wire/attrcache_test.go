package wire

import (
	"encoding/binary"
	"hash/maphash"
	"testing"
)

// medBlock is a valid attribute block (ORIGIN IGP, MED n): distinct n,
// distinct blocks and distinct sets.
func medBlock(n uint32) []byte {
	return binary.BigEndian.AppendUint32([]byte{flagTransitive, attrOrigin, 1, 0, flagOptional, attrMED, 4}, n)
}

func mustDecode(t *testing.T, c *AttrCache, b []byte, want AttrSource) *Attrs {
	t.Helper()
	c.src = AttrsNone
	a, _, malformed, err := c.decode(b, DefaultOptions)
	if err != nil || malformed != nil {
		t.Fatalf("block %x: err %v, malformed %v", b, err, malformed)
	}
	if c.src != want {
		t.Fatalf("block %x: attributes from %v, want %v", b, c.src, want)
	}
	return a
}

// The slot table appears at the first block with 64 slots, doubles each
// time its fills reach its size (dropping what it held), and stops at
// 4096, after which misses only evict.
func TestAttrCacheGrowth(t *testing.T) {
	tab := NewInternTable()
	c := NewAttrCache(tab)
	if c.slots != nil {
		t.Fatal("slots allocated before the first block")
	}
	n := uint32(0)
	for _, size := range []int{64, 128, 256, 512, 1024, 2048} {
		for i := 0; i < size; i++ {
			mustDecode(t, c, medBlock(n), AttrsParsed)
			mustDecode(t, c, medBlock(n), AttrsCached) // a hit fills nothing
			n++
			if len(c.slots) != size {
				t.Fatalf("after %d blocks: %d slots, want %d", n, len(c.slots), size)
			}
		}
	}
	// The 4033rd block finds fills == 2048: the table doubles, empty.
	mustDecode(t, c, medBlock(0), AttrsParsed)
	if len(c.slots) != attrCacheMaxSlots || c.fills != 1 {
		t.Fatalf("%d slots, %d fills; want %d, 1", len(c.slots), c.fills, attrCacheMaxSlots)
	}
	for i := 0; i < 3*attrCacheMaxSlots; i++ {
		mustDecode(t, c, medBlock(n), AttrsParsed)
		n++
	}
	if len(c.slots) != attrCacheMaxSlots {
		t.Fatalf("grew past the cap: %d slots", len(c.slots))
	}
	if hits, misses := tab.Stats(); misses != uint64(n) || hits != 1 {
		t.Fatalf("intern table: %d hits, %d misses; want 1 hit (the re-parse of block 0), %d misses", hits, misses, n)
	}
}

// Two blocks that map to one slot evict each other, and a block parsed
// again after eviction still decodes to the canonical pointer.
func TestAttrCacheEvictsOnCollision(t *testing.T) {
	tab := NewInternTable()
	c := NewAttrCache(tab)
	a0 := mustDecode(t, c, medBlock(0), AttrsParsed)
	if want := tab.Intern(&Attrs{Origin: OriginIGP, HasMED: true}); a0 != want {
		t.Fatal("cached set is not the table's canonical pointer")
	}
	slot := maphash.Bytes(c.seed, medBlock(0)) & uint64(len(c.slots)-1)
	n := uint32(1)
	for maphash.Bytes(c.seed, medBlock(n))&uint64(len(c.slots)-1) != slot {
		n++
	}
	mustDecode(t, c, medBlock(n), AttrsParsed)
	if got := mustDecode(t, c, medBlock(0), AttrsParsed); got != a0 {
		t.Fatal("re-parse after eviction did not return the canonical pointer")
	}
	mustDecode(t, c, medBlock(0), AttrsCached)
	mustDecode(t, c, medBlock(n), AttrsParsed)
}
