package response

import (
	"bytes"
	"encoding/hex"
	"math"
	"strings"
	"testing"
)

// codecFixtures are the edge-case matrices both serialization paths — the
// human-readable CSV reference and the binary snapshot codec — must round
// trip identically: zero-answer users, single-item matrices, Unanswered
// cells mixed with answers, and matrices carrying post-SetAnswer dirty
// memo state (the snapshot must capture content, not memo internals).
func codecFixtures(t *testing.T) map[string]*Matrix {
	t.Helper()
	fixtures := make(map[string]*Matrix)

	empty := New(3, 2, 4)
	fixtures["all-unanswered"] = empty

	single := New(4, 1, 3)
	single.SetAnswer(0, 0, 2)
	single.SetAnswer(2, 0, 0)
	fixtures["single-item"] = single

	sparse := New(5, 3, 2, 3, 4)
	sparse.SetAnswer(0, 0, 1)
	sparse.SetAnswer(0, 2, 3)
	sparse.SetAnswer(3, 1, 0)
	// Users 1, 2 and 4 answer nothing.
	fixtures["zero-answer-users"] = sparse

	retracted := New(3, 3, 3)
	for u := 0; u < 3; u++ {
		for i := 0; i < 3; i++ {
			retracted.SetAnswer(u, i, (u+i)%3)
		}
	}
	retracted.SetAnswer(1, 1, Unanswered)
	fixtures["retracted-cells"] = retracted

	// Dropped pattern: encode, then overwrite rows so the page's one-hot
	// pattern lags the choices at serialization time. The codecs must
	// serialize the live choices, not the pattern.
	dirty := New(4, 2, 3)
	dirty.SetAnswer(0, 0, 1)
	dirty.SetAnswer(1, 1, 2)
	dirty.Patterns(nil)
	dirty.SetAnswer(0, 0, 2)
	dirty.SetAnswer(3, 1, 0)
	fixtures["post-setanswer-dirty"] = dirty

	// Header fields and cells of 128 and up take two varint bytes: 128
	// users, an item of 129 options with its top option chosen, and a
	// generation past 128 from rewriting one cell.
	wide := New(128, 1, 129)
	wide.SetAnswer(127, 0, 128)
	for i := 0; i < 140; i++ {
		wide.SetAnswer(1, 0, i%2)
	}
	fixtures["multi-byte-varints"] = wide

	return fixtures
}

// sameContent fails t unless a and b agree on geometry and every choice.
func sameContent(t *testing.T, name string, a, b *Matrix) {
	t.Helper()
	if a.Users() != b.Users() || a.Items() != b.Items() {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, a.Users(), a.Items(), b.Users(), b.Items())
	}
	for i := 0; i < a.Items(); i++ {
		if a.OptionCount(i) != b.OptionCount(i) {
			t.Fatalf("%s: item %d options %d != %d", name, i, a.OptionCount(i), b.OptionCount(i))
		}
	}
	for u := 0; u < a.Users(); u++ {
		for i := 0; i < a.Items(); i++ {
			if a.Answer(u, i) != b.Answer(u, i) {
				t.Fatalf("%s: cell (%d,%d) %d != %d", name, u, i, a.Answer(u, i), b.Answer(u, i))
			}
		}
	}
}

// sameCSR fails t unless the two CSRs are bitwise identical in content.
func sameCSR(t *testing.T, name string, a, b interface {
	Rows() int
	Cols() int
	RowNNZ(int) ([]int, []float64)
}) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("%s: CSR shape mismatch", name)
	}
	for r := 0; r < a.Rows(); r++ {
		ca, va := a.RowNNZ(r)
		cb, vb := b.RowNNZ(r)
		if len(ca) != len(cb) {
			t.Fatalf("%s: row %d nnz %d != %d", name, r, len(ca), len(cb))
		}
		for k := range ca {
			if ca[k] != cb[k] || math.Float64bits(va[k]) != math.Float64bits(vb[k]) {
				t.Fatalf("%s: row %d entry %d differs", name, r, k)
			}
		}
	}
}

// TestCSVRoundTripEdgeCases round-trips every codec fixture through the
// CSV reference path and checks content equality. (CSV does not carry the
// generation counter; that is the binary codec's contract.)
func TestCSVRoundTripEdgeCases(t *testing.T) {
	for name, m := range codecFixtures(t) {
		var buf bytes.Buffer
		if err := m.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: WriteCSV: %v", name, err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("%s: ReadCSV: %v", name, err)
		}
		sameContent(t, name, m, back)
	}
}

// TestBinaryRoundTrip round-trips every codec fixture through the binary
// snapshot codec and checks content, generation, and that the derived
// one-hot/normalized forms of the restored matrix are bitwise identical to
// the original's — the property snapshot recovery relies on.
func TestBinaryRoundTrip(t *testing.T) {
	for name, m := range codecFixtures(t) {
		var buf bytes.Buffer
		if err := m.WriteBinary(&buf); err != nil {
			t.Fatalf("%s: WriteBinary: %v", name, err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("%s: ReadBinary: %v", name, err)
		}
		sameContent(t, name, m, back)
		if back.Generation() != m.Generation() {
			t.Fatalf("%s: generation %d != %d", name, back.Generation(), m.Generation())
		}
		sameCSR(t, name+"/binary", m.Binary(), back.Binary())
		_, crow, ccol := m.Normalized()
		_, brow, bcol := back.Normalized()
		sameCSR(t, name+"/crow", crow, brow)
		sameCSR(t, name+"/ccol", ccol, bcol)
	}
}

// TestBinaryAgreesWithCSV pins the two codecs to each other: for every
// fixture, decoding the CSV form and decoding the binary form yield the
// same matrix content.
func TestBinaryAgreesWithCSV(t *testing.T) {
	for name, m := range codecFixtures(t) {
		var cbuf, bbuf bytes.Buffer
		if err := m.WriteCSV(&cbuf); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteBinary(&bbuf); err != nil {
			t.Fatal(err)
		}
		fromCSV, err := ReadCSV(&cbuf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fromBin, err := ReadBinary(&bbuf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameContent(t, name, fromCSV, fromBin)
	}
}

// binaryGolden is every codec fixture's snapshot encoding, captured from
// the streaming encoder that wrote one varint per Write call. Data dirs
// and handoff bundles written by any release must stay readable, so the
// bytes must never change for the same content and generation.
var binaryGolden = map[string]string{
	"all-unanswered":       "484e44534e41503103020404000000000000006e42df96",
	"multi-byte-varints":   "484e44534e41503180010181018d01000200000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000008101fae930df",
	"post-setanswer-dirty": "484e44534e4150310402030304030000030000000191379199",
	"retracted-cells":      "484e44534e41503103030303030a010203020001030102a9d03b1f",
	"single-item":          "484e44534e41503104010302030001009ff3562a",
	"zero-answer-users":    "484e44534e415031050302030403020004000000000000000100000000c6893af4",
}

// countingBuffer is a bytes.Buffer that counts Write calls.
type countingBuffer struct {
	bytes.Buffer
	writes int
}

func (b *countingBuffer) Write(p []byte) (int, error) {
	b.writes++
	return b.Buffer.Write(p)
}

// TestBinaryGoldenBytes pins the snapshot encoding byte for byte, and that
// the blob reaches its writer in one Write call — one write(2) per
// snapshot file, whatever its size.
func TestBinaryGoldenBytes(t *testing.T) {
	fixtures := codecFixtures(t)
	if len(fixtures) != len(binaryGolden) {
		t.Fatalf("%d fixtures, %d goldens: capture the new fixture's bytes", len(fixtures), len(binaryGolden))
	}
	for name, m := range fixtures {
		var w countingBuffer
		if err := m.WriteBinary(&w); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(w.Bytes()); got != binaryGolden[name] {
			t.Fatalf("%s: encoding changed\n got %s\nwant %s", name, got, binaryGolden[name])
		}
		if w.writes != 1 {
			t.Fatalf("%s: WriteBinary made %d Write calls, want 1", name, w.writes)
		}
	}
}

// TestBinaryDetectsCorruption flips single bytes across an encoded
// snapshot and asserts every corruption is rejected (checksum, magic, or
// structural validation) — never silently decoded.
func TestBinaryDetectsCorruption(t *testing.T) {
	m := codecFixtures(t)["retracted-cells"]
	var buf bytes.Buffer
	if err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for pos := 0; pos < len(blob); pos++ {
		corrupt := append([]byte(nil), blob...)
		corrupt[pos] ^= 0x41
		if _, err := ReadBinary(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("byte %d corrupted yet snapshot decoded", pos)
		}
	}
	for cut := 1; cut < len(blob); cut++ {
		if _, err := ReadBinary(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("snapshot truncated to %d bytes yet decoded", cut)
		}
	}
}

// TestBinaryRejectsGarbage covers the parser's structural guards directly.
func TestBinaryRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"HNDSNAP1",
		"NOTASNAP00000000",
		strings.Repeat("x", 64),
	}
	for _, in := range cases {
		if _, err := ReadBinary(strings.NewReader(in)); err == nil {
			t.Fatalf("garbage %q decoded", in)
		}
	}
}
