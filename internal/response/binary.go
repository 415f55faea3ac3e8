package response

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The binary snapshot codec serializes a Matrix as a compact, versioned,
// checksummed blob — the format the durability layer's generation-stamped
// snapshots use. WriteCSV/ReadCSV remain the human-readable reference
// encoding; the two agree on content (see the shared codec fixtures in the
// tests), but only the binary form carries the write-generation counter,
// which recovery needs to know where WAL replay must resume.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic   "HNDSNAP1" (8 bytes)
//	users, items
//	options[items]
//	generation
//	choices[users*items], each encoded as choice+1 (0 = Unanswered)
//	crc     CRC32-C over everything above (4 bytes little-endian)
//
// The trailing checksum covers the whole blob, so a torn or bit-flipped
// snapshot is detected before any of its content is trusted.

// binaryMagic identifies (and versions) the binary snapshot format; bump
// the trailing digit on any incompatible layout change.
const binaryMagic = "HNDSNAP1"

// crcTable is the Castagnoli polynomial table shared by the snapshot and
// WAL framing checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxSnapshotCells bounds users×items and Σkᵢ of every matrix (see
// CheckShape), so a corrupted header that survives long enough to be
// parsed can never drive a huge allocation, and no matrix is built that
// its snapshot could not restore. (In practice corruption is caught by the
// checksum first: ReadBinary verifies the CRC over the raw bytes before
// parsing anything.)
const maxSnapshotCells = 1 << 32

// WriteBinary serializes m in the binary snapshot format, including the
// current write generation. The encoding is deterministic: equal matrices
// at equal generations produce identical bytes. The blob is encoded into
// one buffer and handed to w in a single Write call, so a snapshot file
// costs one write(2) whatever the matrix size.
func (m *Matrix) WriteBinary(w io.Writer) error {
	gen := m.Generation()
	// A cell encodes in one byte while its item has at most 127 options;
	// wider items only grow the buffer.
	buf := make([]byte, 0, len(binaryMagic)+(3+len(m.options))*binary.MaxVarintLen64+m.users*m.items+4)
	buf = append(buf, binaryMagic...)
	buf = binary.AppendUvarint(buf, uint64(m.users))
	buf = binary.AppendUvarint(buf, uint64(m.items))
	for _, k := range m.options {
		buf = binary.AppendUvarint(buf, uint64(k))
	}
	buf = binary.AppendUvarint(buf, gen)
	for u := 0; u < m.users; u++ {
		for _, h := range m.Row(u) {
			buf = binary.AppendUvarint(buf, uint64(h+1)) // Unanswered (-1) → 0
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("response: write snapshot: %w", err)
	}
	return nil
}

// ReadBinary parses the format produced by WriteBinary, restoring the
// matrix content and its write generation. The whole blob is read and its
// checksum verified before any of it is parsed, so a corrupt snapshot
// fails loudly instead of yielding a plausible-but-wrong matrix.
func ReadBinary(r io.Reader) (*Matrix, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("response: read snapshot: %w", err)
	}
	if len(raw) < len(binaryMagic)+4 {
		return nil, fmt.Errorf("response: snapshot too short (%d bytes)", len(raw))
	}
	if string(raw[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("response: bad snapshot magic %q", raw[:len(binaryMagic)])
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("response: snapshot checksum mismatch (got %08x, want %08x)", got, want)
	}

	p := body[len(binaryMagic):]
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("response: snapshot truncated reading %s", what)
		}
		p = p[n:]
		return v, nil
	}
	users, err := next("users")
	if err != nil {
		return nil, err
	}
	items, err := next("items")
	if err != nil {
		return nil, err
	}
	if users > maxSnapshotCells || items > maxSnapshotCells || CheckShape(int(users), int(items), 1) != nil {
		return nil, fmt.Errorf("response: snapshot declares invalid shape %d×%d", users, items)
	}
	options := make([]int, items)
	for i := range options {
		k, err := next("options")
		if err != nil {
			return nil, err
		}
		if k < 1 || k > maxSnapshotCells {
			return nil, fmt.Errorf("response: snapshot item %d declares %d options", i, k)
		}
		options[i] = int(k)
	}
	if err := CheckShape(int(users), int(items), options...); err != nil {
		return nil, fmt.Errorf("response: snapshot declares invalid shape: %w", err)
	}
	gen, err := next("generation")
	if err != nil {
		return nil, err
	}
	m := New(int(users), int(items), options...)
	for u := 0; u < m.users; u++ {
		row := m.Row(u) // m is fresh and owns every page
		for i := range row {
			v, err := next("choices")
			if err != nil {
				return nil, err
			}
			if v == 0 {
				continue // Unanswered, already the New default
			}
			if h := v - 1; h < uint64(m.options[i]) {
				row[i] = int(h)
			} else {
				return nil, fmt.Errorf("response: snapshot cell %d option %d out of range [0,%d)", u*m.items+i, h, m.options[i])
			}
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("response: snapshot has %d trailing bytes", len(p))
	}
	m.gen = gen
	return m, nil
}
