package dil

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// borrow round-trips l through the segment encoding into borrowed mode.
func borrow(t *testing.T, l List) *CompactList {
	t.Helper()
	seg := Compact(l).AppendSegment(nil)
	b, err := BorrowSegment(seg)
	if err != nil {
		t.Fatalf("BorrowSegment: %v", err)
	}
	if !b.Borrowed() {
		t.Fatal("BorrowSegment returned a non-borrowed list")
	}
	return b
}

// Acceptance: the segment encoding is lossless and the borrowed list
// reproduces the original postings exactly.
func TestSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 17} {
		l := randomList(rng, n, 20, 8)
		if len(l) == 0 {
			continue
		}
		b := borrow(t, l)
		if b.Len() != len(l) || b.Blocks() != Compact(l).Blocks() {
			t.Fatalf("n=%d: Len/Blocks mismatch", n)
		}
		if !listsEqual(b.List(), l) {
			t.Fatalf("n=%d: borrowed List() does not reproduce the original", n)
		}
		// Re-encoding a borrowed list reproduces the segment, and the
		// borrowed list re-encoded through the heap form does too.
		seg := Compact(l).AppendSegment(nil)
		if !bytes.Equal(b.AppendSegment(nil), seg) {
			t.Fatalf("n=%d: borrowed AppendSegment differs", n)
		}
		if !bytes.Equal(Compact(b.List()).AppendSegment(nil), seg) {
			t.Fatalf("n=%d: List round-trip of the borrowed list differs", n)
		}
	}
}

// Acceptance: every Cursor operation over a borrowed list behaves
// exactly like over the heap-decoded list — sequential walks, seeks,
// and the top-k score bounds.
func TestSegmentCursorDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4*BlockSize)
		docs := 2 + rng.Intn(30)
		l := randomList(rng, n, docs, 7)
		if len(l) == 0 {
			continue
		}
		heap := Compact(l)
		bor := borrow(t, l)

		// Sequential walk.
		hc, bc := NewCursor(heap), NewCursor(bor)
		for hc.Valid() {
			if !bc.Valid() {
				t.Fatal("borrowed cursor drained early")
			}
			if !hc.Cur().Equal(bc.Cur()) || hc.Score() != bc.Score() || hc.DocID() != bc.DocID() {
				t.Fatalf("trial %d: posting mismatch at %v", trial, hc.Cur())
			}
			if hc.RemainingMax() != bc.RemainingMax() {
				t.Fatalf("trial %d: RemainingMax mismatch", trial)
			}
			d := int32(rng.Intn(docs + 2))
			if hc.DocBound(d) != bc.DocBound(d) {
				t.Fatalf("trial %d: DocBound(%d) mismatch", trial, d)
			}
			hc.Advance()
			bc.Advance()
		}
		if bc.Valid() {
			t.Fatal("borrowed cursor has extra postings")
		}

		// Random seek sequences (non-decreasing targets).
		hc, bc = NewCursor(heap), NewCursor(bor)
		doc := int32(0)
		for step := 0; step < 30; step++ {
			doc += int32(rng.Intn(3))
			hok, bok := hc.SeekDoc(doc), bc.SeekDoc(doc)
			if hok != bok {
				t.Fatalf("trial %d: SeekDoc(%d) ok mismatch", trial, doc)
			}
			if !hok {
				break
			}
			if !hc.Cur().Equal(bc.Cur()) || hc.Score() != bc.Score() {
				t.Fatalf("trial %d: SeekDoc(%d) landed on different postings", trial, doc)
			}
			if rng.Intn(2) == 0 {
				hc.Advance()
				bc.Advance()
			}
		}
	}
}

// Acceptance: a segment whose skip table disagrees with its postings —
// or whose structure is otherwise damaged — is rejected, never trusted.
func TestBorrowSegmentRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := randomList(rng, 2*BlockSize+7, 10, 5)
	seg := Compact(l).AppendSegment(nil)
	if _, err := BorrowSegment(seg); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:7] }},
		{"truncated table", func(b []byte) []byte { return b[:segHeaderSize+3] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
		{"zero postings", func(b []byte) []byte { b[0], b[1], b[2], b[3] = 0, 0, 0, 0; return b }},
		{"block count", func(b []byte) []byte { b[4]++; return b }},
		{"block offset", func(b []byte) []byte { b[segHeaderSize]++; return b }},
		{"block firstDoc", func(b []byte) []byte { b[segHeaderSize+4]++; return b }},
		{"block maxScore", func(b []byte) []byte { b[segHeaderSize+8+6]++; return b }},
		{"block tailMax", func(b []byte) []byte { b[segHeaderSize+16+6]++; return b }},
	} {
		mut := tc.mut(append([]byte(nil), seg...))
		if _, err := BorrowSegment(mut); err == nil {
			t.Errorf("%s: corrupt segment accepted", tc.name)
		}
	}

	// Payloads whose skip table is consistent but whose front coding is
	// not canonical, or whose identifier is empty.
	for name, payload := range map[string][]byte{
		// "0.2" shares the prefix "0" with "0.1": canonical coding is
		// prefix 1, suffix {2}, not prefix 0 and the full identifier.
		"non-canonical front coding": appendScore(appendUvarints(
			appendScore(appendUvarints(nil, 0, 2, 0, 1), 0.5), 0, 2, 0, 2), 0.25),
		"empty identifier": appendScore(appendUvarints(nil, 0, 0), 1),
	} {
		n := 2
		if name == "empty identifier" {
			n = 1
		}
		if _, err := BorrowSegment(rawSegment(n, 0, 0.5, payload)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// rawSegment frames a hand-built payload of n < BlockSize postings as a
// one-block segment with the given skip entry.
func rawSegment(n int, firstDoc uint32, maxScore float64, payload []byte) []byte {
	seg := binary.LittleEndian.AppendUint32(nil, uint32(n))
	seg = binary.LittleEndian.AppendUint32(seg, 1)
	seg = binary.LittleEndian.AppendUint32(seg, 0)
	seg = binary.LittleEndian.AppendUint32(seg, firstDoc)
	seg = binary.LittleEndian.AppendUint64(seg, math.Float64bits(maxScore))
	seg = binary.LittleEndian.AppendUint64(seg, math.Float64bits(maxScore))
	return append(seg, payload...)
}
