package dil

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/xmltree"
)

func FuzzDecodeCompact(f *testing.F) {
	sample := List{
		{ID: xmltree.Dewey{0, 1}, Score: 0.5},
		{ID: xmltree.Dewey{0, 1, 3}, Score: 0.25},
		{ID: xmltree.Dewey{2}, Score: 1},
	}
	f.Add(Compact(sample).AppendBinary(nil))
	f.Add(Compact(nil).AppendBinary(nil))
	f.Add(binary.AppendUvarint(nil, compactMagic)) // magic alone
	f.Fuzz(func(t *testing.T, buf []byte) {
		c, err := DecodeCompact(buf)
		if err != nil {
			return
		}
		// Accepted inputs re-encode bit-identically (canonical front
		// coding is enforced) and round-trip through the flat form.
		if got := c.AppendBinary(nil); !bytes.Equal(got, buf) {
			t.Fatalf("re-encode mismatch: %x vs %x", got, buf)
		}
		if got := Compact(c.List()).AppendBinary(nil); !bytes.Equal(got, buf) {
			t.Fatalf("List round-trip mismatch: %x vs %x", got, buf)
		}
	})
}
