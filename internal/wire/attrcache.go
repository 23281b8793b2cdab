package wire

// Per-session attribute decoding. A peer that re-announces a stable
// table, or churns a few prefixes under one set, sends the same raw
// path-attribute block over and over; decode is a pure function of
// (block, Options), so a session's reader can remember what each block
// it saw recently decoded to and skip parseAttrs, its allocations and
// the intern lookup on every repeat.
//
// Only the reader goroutine of one session uses a cache, so it takes no
// lock. It is direct-mapped: a block's seeded maphash picks one slot,
// and a hit needs the slot's copy of the block to be bytewise equal
// (and the same Options). A slot holds what a fresh decode gives: the
// interned set, the attribute-discard codes, and the RFC 7606
// treat-as-withdraw error, if there was one. A session-reset error is
// never cached; the session ends with it. The slot table starts at
// attrCacheMinSlots at the first block; every time the number of fills
// reaches the slot count it doubles and starts empty, until
// attrCacheMaxSlots, after which a colliding block simply evicts.
// Resident cost per session is thus at most attrCacheMaxSlots slots
// plus one copy of each cached block.

import (
	"bytes"
	"errors"
	"hash/maphash"
	"io"
)

const (
	attrCacheMinSlots = 64
	attrCacheMaxSlots = 4096
)

// AttrSource says where a decoded UPDATE's attributes came from.
type AttrSource uint8

const (
	// AttrsNone: the message is not an UPDATE with an attribute block,
	// or it was not decoded through a cache.
	AttrsNone AttrSource = iota
	// AttrsCached: the block matched a cache slot and was not parsed.
	AttrsCached
	// AttrsParsed: the block was parsed, interned and cached.
	AttrsParsed
)

// AttrCache decodes the attribute blocks of one session's inbound
// UPDATEs once per distinct block, handing back interned sets. The
// zero value is not usable; call NewAttrCache. Not safe for concurrent
// use: it belongs to one reader goroutine.
type AttrCache struct {
	intern *InternTable
	seed   maphash.Seed
	slots  []attrSlot // len is 0 or a power of two
	fills  int        // since slots was last (re)allocated
	src    AttrSource // of the message being decoded
}

// attrSlot is one remembered block and what it decoded to. An unused
// slot has an empty block, which never matches: only a non-empty block
// is looked up.
type attrSlot struct {
	block     []byte
	opt       Options
	attrs     *Attrs // interned; nil when malformed is set
	discarded []uint8
	malformed *Error
}

// NewAttrCache returns an empty cache whose sets are interned in t.
func NewAttrCache(t *InternTable) *AttrCache {
	return &AttrCache{intern: t, seed: maphash.MakeSeed()}
}

// ReadMessage is the package-level ReadMessage with UPDATE attribute
// blocks decoded through c, so every returned Update.Attrs is interned
// in c's table. It also reports where that UPDATE's attributes came
// from. A nil c decodes exactly as ReadMessage does.
//
// What a hit returns is shared with every other UPDATE that carried the
// block: Attrs is frozen (the interning contract), and Discarded and
// Malformed must be treated as read-only too.
func (c *AttrCache) ReadMessage(r io.Reader, opt Options) (Message, AttrSource, error) {
	if c == nil {
		m, err := readMessage(r, opt, nil)
		return m, AttrsNone, err
	}
	c.src = AttrsNone
	m, err := readMessage(r, opt, c)
	return m, c.src, err
}

// decode returns what the attribute block b decodes to under opt: the
// set (interned when c is non-nil) and its discarded codes, or the
// treat-as-withdraw error, or a session-reset err. A nil c parses.
func (c *AttrCache) decode(b []byte, opt Options) (*Attrs, []uint8, *Error, error) {
	if c == nil {
		return decodeAttrs(b, opt)
	}
	if c.slots == nil {
		c.slots = make([]attrSlot, attrCacheMinSlots)
	}
	h := maphash.Bytes(c.seed, b)
	sl := &c.slots[h&uint64(len(c.slots)-1)]
	if sl.opt == opt && bytes.Equal(sl.block, b) {
		c.src = AttrsCached
		return sl.attrs, sl.discarded, sl.malformed, nil
	}
	a, discarded, malformed, err := decodeAttrs(b, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	a = c.intern.Intern(a)
	c.src = AttrsParsed
	if c.fills == len(c.slots) && len(c.slots) < attrCacheMaxSlots {
		c.slots = make([]attrSlot, 2*len(c.slots))
		c.fills = 0
		sl = &c.slots[h&uint64(len(c.slots)-1)]
	}
	c.fills++
	*sl = attrSlot{
		block: append(sl.block[:0], b...), opt: opt,
		attrs: a, discarded: discarded, malformed: malformed,
	}
	return a, discarded, malformed, nil
}

// decodeAttrs parses an UPDATE's attribute block and sorts the outcome
// RFC 7606's way: a set with its discarded codes, a treat-as-withdraw
// error the UPDATE absorbs, or a session-reset err.
func decodeAttrs(b []byte, opt Options) (*Attrs, []uint8, *Error, error) {
	a, discarded, err := parseAttrs(b, opt)
	if err == nil {
		return a, discarded, nil, nil
	}
	var we *Error
	if !errors.As(err, &we) || we.Action != ActionTreatAsWithdraw {
		return nil, nil, nil, err
	}
	// The error outlives the message body it was cut from, a pooled
	// buffer recycled once the decode succeeds.
	we.Data = bytes.Clone(we.Data)
	return nil, nil, we, nil
}
