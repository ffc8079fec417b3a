package dil

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/xmltree"
)

// Arena segment layout: the one persisted encoding of a CompactList.
// A segment stores the skip table *explicitly* next to the front-coded
// postings, so a CompactList can serve straight out of a mapped byte
// range ("borrowed" mode) without materializing anything:
//
//	header   n uint32 | nBlocks uint32            (little-endian)
//	blocks   nBlocks × 24 bytes:
//	           payloadOff uint32   byte offset of the block's restart
//	                               point, relative to the payload start
//	           firstDoc   uint32   document ID of the block's first posting
//	           maxScore   float64  largest posting score in the block
//	           tailMax    float64  suffix maximum over blocks b..end
//	payload  per-posting bytes:
//	           uvarint prefixLen | uvarint suffixLen |
//	           suffix components as uvarints | score as 8 LE bytes
//
// A heap list and the borrowed list over its segment walk the same
// postings, and re-encoding a borrowed list reproduces the segment
// byte for byte (TestSegmentRoundTrip), which is what makes the mmap
// and heap paths provably serve the same postings.
//
// A segment never contains an empty list (Index.Set drops empty
// keywords), and the trailing CRC that protects a segment on disk is
// owned by the arena file format, not by this layer: BorrowSegment
// receives the CRC-stripped body, validates the postings' structure
// and cross-checks every skip-table entry against them.

const (
	segHeaderSize     = 8
	segBlockEntrySize = 24
)

// AppendSegment appends the arena segment encoding of c.
func (c *CompactList) AppendSegment(buf []byte) []byte {
	if c.raw != nil {
		// Borrowed lists already hold the segment layout.
		var h [segHeaderSize]byte
		binary.LittleEndian.PutUint32(h[0:], uint32(c.n))
		binary.LittleEndian.PutUint32(h[4:], uint32(len(c.rawBlocks)/segBlockEntrySize))
		buf = append(buf, h[:]...)
		buf = append(buf, c.rawBlocks...)
		return append(buf, c.raw...)
	}
	nb := len(c.blocks)
	var h [segHeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(c.n))
	binary.LittleEndian.PutUint32(h[4:], uint32(nb))
	buf = append(buf, h[:]...)
	tableOff := len(buf)
	buf = append(buf, make([]byte, nb*segBlockEntrySize)...)
	payloadStart := len(buf)
	off := 0
	for i := 0; i < c.n; i++ {
		if i%BlockSize == 0 {
			b := i / BlockSize
			e := buf[tableOff+b*segBlockEntrySize:]
			binary.LittleEndian.PutUint32(e[0:], uint32(len(buf)-payloadStart))
			binary.LittleEndian.PutUint32(e[4:], uint32(c.blocks[b].firstDoc))
			binary.LittleEndian.PutUint64(e[8:], math.Float64bits(c.blocks[b].maxScore))
			binary.LittleEndian.PutUint64(e[16:], math.Float64bits(c.tailMax[b]))
		}
		buf = binary.AppendUvarint(buf, uint64(c.prefixLens[i]))
		buf = binary.AppendUvarint(buf, uint64(c.suffixLens[i]))
		sl := int(c.suffixLens[i])
		for _, comp := range c.comps[off : off+sl] {
			buf = binary.AppendUvarint(buf, uint64(comp))
		}
		off += sl
		var f [8]byte
		binary.LittleEndian.PutUint64(f[:], math.Float64bits(c.scores[i]))
		buf = append(buf, f[:]...)
	}
	return buf
}

// BorrowSegment validates an arena segment body (CRC already stripped
// and checked by the caller) and returns a CompactList that serves
// postings directly out of seg without copying. The caller must keep
// the backing bytes alive — and mapped — for as long as the list or
// any Cursor over it is in use.
//
// Validation checks canonical varints, restart-point prefix 0, the
// front-coding invariants (a prefix never longer than the previous
// identifier, and maximal: the first suffix component differs from
// the previous identifier's), non-empty identifiers and int32
// component bounds, and proves every skip-table entry consistent with
// the decoded postings: payload offsets, first documents, block
// maxima, and tail maxima must all match exactly. A segment that
// passes is safe for the Cursor's unvalidated borrowed decode path.
func BorrowSegment(seg []byte) (*CompactList, error) {
	if len(seg) < segHeaderSize {
		return nil, fmt.Errorf("dil: segment header truncated (%d bytes)", len(seg))
	}
	n := int(binary.LittleEndian.Uint32(seg[0:]))
	nb := int(binary.LittleEndian.Uint32(seg[4:]))
	if n <= 0 || n > 1<<28 {
		return nil, fmt.Errorf("dil: implausible segment posting count %d", n)
	}
	if want := (n + BlockSize - 1) / BlockSize; nb != want {
		return nil, fmt.Errorf("dil: segment has %d blocks for %d postings (want %d)", nb, n, want)
	}
	if len(seg) < segHeaderSize+nb*segBlockEntrySize {
		return nil, fmt.Errorf("dil: segment block table truncated")
	}
	table := seg[segHeaderSize : segHeaderSize+nb*segBlockEntrySize]
	payload := seg[segHeaderSize+nb*segBlockEntrySize:]

	blockOff := func(b int) int {
		return int(binary.LittleEndian.Uint32(table[b*segBlockEntrySize:]))
	}
	blockFirst := func(b int) int32 {
		return int32(binary.LittleEndian.Uint32(table[b*segBlockEntrySize+4:]))
	}
	blockMaxBits := func(b int) uint64 {
		return binary.LittleEndian.Uint64(table[b*segBlockEntrySize+8:])
	}
	blockTailBits := func(b int) uint64 {
		return binary.LittleEndian.Uint64(table[b*segBlockEntrySize+16:])
	}

	off := 0
	var prev xmltree.Dewey
	var maxScore float64
	for i := 0; i < n; i++ {
		restart := i%BlockSize == 0
		if restart {
			b := i / BlockSize
			if blockOff(b) != off {
				return nil, fmt.Errorf("dil: segment block %d offset %d, postings decode at %d", b, blockOff(b), off)
			}
		}
		pl, sz, err := xmltree.CanonicalUvarint(payload[off:])
		if err != nil {
			return nil, fmt.Errorf("dil: segment posting %d prefix: %w", i, err)
		}
		off += sz
		sl, sz, err := xmltree.CanonicalUvarint(payload[off:])
		if err != nil {
			return nil, fmt.Errorf("dil: segment posting %d suffix: %w", i, err)
		}
		off += sz
		if pl+sl == 0 {
			return nil, fmt.Errorf("dil: segment posting %d has empty identifier", i)
		}
		if pl+sl > 1<<20 {
			return nil, fmt.Errorf("dil: segment posting %d implausible identifier length %d", i, pl+sl)
		}
		if restart && pl != 0 {
			return nil, fmt.Errorf("dil: segment posting %d is a restart point with prefix %d", i, pl)
		}
		if int(pl) > len(prev) {
			return nil, fmt.Errorf("dil: segment posting %d prefix %d exceeds previous length %d", i, pl, len(prev))
		}
		prevHasNext := int(pl) < len(prev)
		var prevNext int32
		if prevHasNext {
			prevNext = prev[pl]
		}
		prev = prev[:pl]
		for j := uint64(0); j < sl; j++ {
			comp, sz, err := xmltree.CanonicalUvarint(payload[off:])
			if err != nil {
				return nil, fmt.Errorf("dil: segment posting %d component: %w", i, err)
			}
			if comp > 1<<31-1 {
				return nil, fmt.Errorf("dil: segment posting %d component %d overflows int32", i, comp)
			}
			if j == 0 && !restart && prevHasNext && int32(comp) == prevNext {
				return nil, fmt.Errorf("dil: segment posting %d non-canonical front coding", i)
			}
			prev = append(prev, int32(comp))
			off += sz
		}
		if off+8 > len(payload) {
			return nil, fmt.Errorf("dil: segment posting %d score truncated", i)
		}
		score := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
		b := i / BlockSize
		if restart {
			if blockFirst(b) != prev[0] {
				return nil, fmt.Errorf("dil: segment block %d firstDoc %d, posting has %d", b, blockFirst(b), prev[0])
			}
			if b > 0 && blockFirst(b) < blockFirst(b-1) {
				return nil, fmt.Errorf("dil: segment block %d firstDoc decreases", b)
			}
			maxScore = score
		} else if score > maxScore {
			maxScore = score
		}
		if i == n-1 || (i+1)%BlockSize == 0 {
			if blockMaxBits(b) != math.Float64bits(maxScore) {
				return nil, fmt.Errorf("dil: segment block %d maxScore mismatch", b)
			}
		}
	}
	if off != len(payload) {
		return nil, fmt.Errorf("dil: %d trailing bytes after segment postings", len(payload)-off)
	}
	// Tail maxima must be the suffix maxima of the block maxima.
	want := blockMaxBits(nb - 1)
	for b := nb - 1; b >= 0; b-- {
		if math.Float64frombits(blockMaxBits(b)) > math.Float64frombits(want) {
			want = blockMaxBits(b)
		}
		if blockTailBits(b) != want {
			return nil, fmt.Errorf("dil: segment block %d tailMax mismatch", b)
		}
	}
	return &CompactList{n: n, rawBlocks: table, raw: payload}, nil
}
