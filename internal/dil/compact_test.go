package dil

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/xmltree"
)

// randomList builds a sorted list of n postings over docs documents
// with random ragged Dewey identifiers, including duplicates.
func randomList(rng *rand.Rand, n, docs, maxDepth int) List {
	l := make(List, 0, n)
	for i := 0; i < n; i++ {
		depth := 1 + rng.Intn(maxDepth)
		id := make(xmltree.Dewey, depth)
		id[0] = int32(rng.Intn(docs))
		for j := 1; j < depth; j++ {
			id[j] = int32(rng.Intn(4))
		}
		l = append(l, Posting{ID: id, Score: rng.Float64()})
		if rng.Intn(8) == 0 { // duplicate identifier, distinct score
			l = append(l, Posting{ID: id.Clone(), Score: rng.Float64()})
		}
	}
	l.Sort()
	return l
}

func listsEqual(a, b List) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].ID.Equal(b[i].ID) || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// Acceptance: Compact is lossless — List() reproduces the original
// postings exactly, across sizes spanning multiple blocks.
func TestCompactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 17} {
		l := randomList(rng, n, 20, 8)
		c := Compact(l)
		if c.Len() != len(l) {
			t.Fatalf("n=%d: Len = %d, want %d", n, c.Len(), len(l))
		}
		if want := (len(l) + BlockSize - 1) / BlockSize; c.Blocks() != want {
			t.Fatalf("n=%d: Blocks = %d, want %d", n, c.Blocks(), want)
		}
		if !listsEqual(c.List(), l) {
			t.Fatalf("n=%d: List() does not reproduce the original", n)
		}
	}
}

// Acceptance: the segment encoding round-trips bit-identically — a
// borrowed list re-encodes to the same bytes, decodes to the original
// postings, and reports the heap list's skip entries — and its
// front-coded payload is smaller than the flat layout.
func TestCompactEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := randomList(rng, 2*BlockSize+9, 12, 6)
	c := Compact(l)
	seg := c.AppendSegment(nil)
	b, err := BorrowSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.AppendSegment(nil), seg) {
		t.Fatal("re-encode differs")
	}
	if b.Blocks() != c.Blocks() {
		t.Fatalf("Blocks = %d, want %d", b.Blocks(), c.Blocks())
	}
	for i := 0; i < c.Blocks(); i++ {
		if b.blockPayloadOff(i) >= len(b.raw) || b.blockFirstDoc(i) != c.blockFirstDoc(i) ||
			b.blockMaxScore(i) != c.blockMaxScore(i) || b.blockTailMax(i) != c.blockTailMax(i) {
			t.Fatalf("block %d: skip entry differs from the heap list's", i)
		}
	}
	if !listsEqual(b.List(), l) {
		t.Fatal("decoded list differs from original list")
	}
	// The front-coded payload should not be larger than the flat
	// encoding on clustered Dewey data (delta coding is the point).
	if flat := l.EncodedSize(); len(b.raw) > flat {
		t.Errorf("segment payload %dB larger than flat %dB", len(b.raw), flat)
	}
}

func appendUvarints(buf []byte, vs ...uint64) []byte {
	for _, v := range vs {
		buf = appendUvarint(buf, v)
	}
	return buf
}

func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func appendScore(buf []byte, s float64) []byte {
	bits := math.Float64bits(s)
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(bits>>(8*i)))
	}
	return buf
}

// Acceptance: cursors stream both representations identically, and
// SeekDoc lands on the first posting of the target document — or the
// next document when the target is absent — while skipping blocks.
func TestCursorSeekDoc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Sparse docs so some SeekDoc targets are absent.
	l := make(List, 0, 6*BlockSize)
	for doc := int32(0); doc < 200; doc += 2 {
		for j := 0; j < 4; j++ {
			l = append(l, Posting{
				ID:    xmltree.Dewey{doc, int32(j), int32(rng.Intn(3))},
				Score: rng.Float64(),
			})
		}
	}
	l.Sort()
	c := Compact(l)

	for _, mode := range []string{"compact", "plain"} {
		newCursor := func() Cursor {
			if mode == "compact" {
				return NewCursor(c)
			}
			return NewListCursor(l)
		}
		// Full sequential walk reproduces the list.
		cu := newCursor()
		for i := 0; cu.Valid(); i++ {
			if !cu.Cur().Equal(l[i].ID) || cu.Score() != l[i].Score {
				t.Fatalf("%s: posting %d = (%v, %v), want (%v, %v)",
					mode, i, cu.Cur(), cu.Score(), l[i].ID, l[i].Score)
			}
			cu.Advance()
		}

		for _, target := range []int32{0, 1, 2, 77, 100, 198, 199, 500} {
			cu := newCursor()
			ok := cu.SeekDoc(target)
			// Reference: linear scan.
			want := -1
			for i, p := range l {
				if p.ID[0] >= target {
					want = i
					break
				}
			}
			if (want >= 0) != ok {
				t.Fatalf("%s: SeekDoc(%d) ok = %v, want %v", mode, target, ok, want >= 0)
			}
			if ok && !cu.Cur().Equal(l[want].ID) {
				t.Fatalf("%s: SeekDoc(%d) landed on %v, want %v", mode, target, cu.Cur(), l[want].ID)
			}
		}

		// Seeks never move backwards.
		cu = newCursor()
		cu.SeekDoc(100)
		at := cu.Cur().Clone()
		cu.SeekDoc(10)
		if !cu.Cur().Equal(at) {
			t.Fatalf("%s: SeekDoc moved backwards to %v", mode, cu.Cur())
		}
	}

	// A long forward jump on the compact cursor must bypass whole
	// blocks without decoding them.
	cu := NewCursor(c)
	if !cu.SeekDoc(198) {
		t.Fatal("SeekDoc(198) exhausted")
	}
	if cu.BlocksSkipped() == 0 {
		t.Errorf("BlocksSkipped = 0 after jumping %d blocks of postings", c.Blocks())
	}
}

// Regression: a document whose postings straddle a block boundary. The
// boundary block's firstDoc equals the seek target, so a seek that
// jumps to the last block with firstDoc <= target would overshoot the
// run's first postings at the tail of the previous block.
func TestCursorSeekDocRunStraddlesBlock(t *testing.T) {
	l := make(List, 0, 2*BlockSize)
	// Docs 0..BlockSize-3 with one posting each, then doc 1000 with
	// postings from index BlockSize-2 through the next block.
	for doc := int32(0); doc < int32(BlockSize)-2; doc++ {
		l = append(l, Posting{ID: xmltree.Dewey{doc, 0}, Score: 1})
	}
	for j := int32(0); j < 10; j++ {
		l = append(l, Posting{ID: xmltree.Dewey{1000, j}, Score: 1})
	}
	c := Compact(l)
	if c.Blocks() < 2 {
		t.Fatalf("want >= 2 blocks, got %d", c.Blocks())
	}
	cu := NewCursor(c)
	if !cu.SeekDoc(1000) {
		t.Fatal("SeekDoc(1000) exhausted")
	}
	if want := (xmltree.Dewey{1000, 0}); !cu.Cur().Equal(want) {
		t.Fatalf("SeekDoc(1000) landed on %v, want %v", cu.Cur(), want)
	}
}

// Acceptance (satellite): Index.Set never mutates the caller's slice —
// an unsorted input is copied before sorting.
func TestIndexSetDoesNotSortCallersSlice(t *testing.T) {
	caller := List{
		{ID: xmltree.Dewey{5}, Score: 1},
		{ID: xmltree.Dewey{1}, Score: 2},
		{ID: xmltree.Dewey{3}, Score: 3},
	}
	snapshot := append(List(nil), caller...)
	ix := NewIndex()
	ix.Set("kw", caller)
	for i := range caller {
		if !caller[i].ID.Equal(snapshot[i].ID) || caller[i].Score != snapshot[i].Score {
			t.Fatalf("caller's slice mutated at %d: %v", i, caller[i])
		}
	}
	if got := ix.List("kw"); !got.IsSorted() {
		t.Fatal("stored list not sorted")
	}
	if ix.Compact("kw") == nil {
		t.Fatal("Set did not build the compact form")
	}
	if got := ix.Compact("kw").List(); !got.IsSorted() || len(got) != 3 {
		t.Fatalf("compact form wrong: %v", got)
	}
}

// The arithmetic EncodedSize matches the length of the flat layout it
// describes, materialized here byte by byte.
func TestEncodedSizeArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 7, 300} {
		l := randomList(rng, n, 1000000, 10) // large doc IDs exercise multi-byte varints
		buf := binary.AppendUvarint(nil, uint64(len(l)))
		for _, p := range l {
			buf = p.ID.AppendBinary(buf)
			buf = append(buf, make([]byte, 8)...)
		}
		if got, want := l.EncodedSize(), len(buf); got != want {
			t.Fatalf("n=%d: EncodedSize = %d, want %d", n, got, want)
		}
	}
}
