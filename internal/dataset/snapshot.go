package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// This file implements the durable on-disk form of a Table: a versioned
// binary columnar snapshot. Unlike WriteFingerprint — which renders every
// cell through a canonical per-cell tag stream for hashing — the snapshot
// serializes the typed column buffers themselves (float values, packed
// interval upper bounds, span and null bitmaps, the text dictionary and its
// id vector), so writing and reading are straight buffer copies and the
// reconstructed table is storage-identical to the original: its
// WriteFingerprint stream is bit-for-bit the same. A CRC-32 trailer detects
// torn or corrupted files; ReadSnapshot never returns a table from a stream
// whose checksum does not verify.
//
// Layout (all integers little-endian):
//
//	u64 magic        0xC01A51A9
//	u64 version      1
//	u64 ncols, u64 nrows
//	ncols × { u64 name-len, name bytes, u8 class, u8 kind }
//	ncols × column storage:
//	    u8  flags    bit0 nulls, bit1 spans, bit2 num, bit3 hi, bit4 text
//	    [nulls]  u64 nwords, nwords × u64
//	    [spans]  u64 nwords, nwords × u64
//	    [num]    nrows × u64 float bits
//	    [hi]     nrows × u64 float bits
//	    [text]   u64 nstrs, nstrs × { u64 len, bytes }, nrows × u32 id
//	u32 crc32(IEEE) of everything above
const (
	snapshotMagic   = 0xC01A51A9
	snapshotVersion = 1
)

const (
	snapHasNulls byte = 1 << iota
	snapHasSpans
	snapHasNum
	snapHasHi
	snapHasText
)

// WriteSnapshot writes the table as a versioned binary columnar snapshot.
// The stream round-trips through ReadSnapshot into a table whose canonical
// fingerprint (WriteFingerprint) is bit-identical to the receiver's.
func (t *Table) WriteSnapshot(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	sw := &snapWriter{w: bw, buf: make([]byte, 0, 8*snapWriteChunk)}
	sw.u64(snapshotMagic)
	sw.u64(snapshotVersion)
	sw.u64(uint64(t.schema.Len()))
	sw.u64(uint64(t.nrows))
	for i := 0; i < t.schema.Len(); i++ {
		c := t.schema.Column(i)
		sw.str(c.Name)
		sw.byte(byte(c.Class))
		sw.byte(byte(c.Kind))
	}
	for _, c := range t.cols {
		sw.column(c, t.nrows)
	}
	if sw.err != nil {
		return fmt.Errorf("dataset: write snapshot: %w", sw.err)
	}
	// Flush the payload into the CRC before sealing the trailer, then write
	// the checksum directly (it must not hash itself).
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dataset: write snapshot: %w", err)
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("dataset: write snapshot: %w", err)
	}
	return nil
}

type snapWriter struct {
	w   *bufio.Writer
	buf []byte // reused encode scratch, snapWriteChunk values of 8 bytes
	err error
}

// snapWriteChunk is how many fixed-width values the writer encodes into its
// scratch buffer per Write.
const snapWriteChunk = 512

func (s *snapWriter) write(b []byte) {
	if s.err == nil {
		_, s.err = s.w.Write(b)
	}
}

func (s *snapWriter) byte(b byte) {
	if s.err == nil {
		s.err = s.w.WriteByte(b)
	}
}

func (s *snapWriter) u64(v uint64) {
	s.write(binary.LittleEndian.AppendUint64(s.buf[:0], v))
}

func (s *snapWriter) str(v string) {
	s.u64(uint64(len(v)))
	if s.err == nil {
		_, s.err = s.w.WriteString(v)
	}
}

func (s *snapWriter) words(b bitset) {
	s.u64(uint64(len(b)))
	for len(b) > 0 {
		c := min(len(b), snapWriteChunk)
		out := s.buf[:0]
		for _, w := range b[:c] {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
		s.write(out)
		b = b[c:]
	}
}

func (s *snapWriter) floats(fs []float64) {
	for len(fs) > 0 {
		c := min(len(fs), snapWriteChunk)
		out := s.buf[:0]
		for _, f := range fs[:c] {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
		}
		s.write(out)
		fs = fs[c:]
	}
}

func (s *snapWriter) ids(ids []int32) {
	for len(ids) > 0 {
		c := min(len(ids), snapWriteChunk)
		out := s.buf[:0]
		for _, id := range ids[:c] {
			out = binary.LittleEndian.AppendUint32(out, uint32(id))
		}
		s.write(out)
		ids = ids[c:]
	}
}

func (s *snapWriter) column(c *colData, nrows int) {
	var flags byte
	if c.nulls != nil {
		flags |= snapHasNulls
	}
	if c.spans != nil {
		flags |= snapHasSpans
	}
	if c.num != nil {
		flags |= snapHasNum
	}
	if c.hi != nil {
		flags |= snapHasHi
	}
	if c.ids != nil {
		flags |= snapHasText
	}
	s.byte(flags)
	if c.nulls != nil {
		s.words(c.nulls)
	}
	if c.spans != nil {
		s.words(c.spans)
	}
	if c.num != nil {
		s.floats(c.num[:nrows])
	}
	if c.hi != nil {
		s.floats(c.hi[:nrows])
	}
	if c.ids != nil {
		s.u64(uint64(len(c.dict.strs)))
		for _, str := range c.dict.strs {
			s.str(str)
		}
		s.ids(c.ids[:nrows])
	}
}

// ReadSnapshot reads a table previously written by WriteSnapshot, verifying
// the trailing checksum. The reconstructed table reuses the snapshot's
// column buffers directly, so its canonical fingerprint matches the written
// table bit for bit.
func ReadSnapshot(r io.Reader) (*Table, error) {
	sr := &snapReader{r: bufio.NewReader(r)}
	if magic := sr.u64(); sr.err == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("dataset: read snapshot: bad magic %#x", magic)
	}
	if version := sr.u64(); sr.err == nil && version != snapshotVersion {
		return nil, fmt.Errorf("dataset: read snapshot: unsupported version %d", version)
	}
	ncols := sr.u64()
	nrows := sr.u64()
	if sr.err == nil && (ncols > 1<<20 || nrows > 1<<40) {
		return nil, fmt.Errorf("dataset: read snapshot: implausible shape %d×%d", nrows, ncols)
	}
	cols := make([]Column, 0, min(ncols, snapAllocChunk))
	for i := uint64(0); i < ncols && sr.err == nil; i++ {
		name := sr.str()
		class := AttrClass(sr.byte())
		kind := ValueKind(sr.byte())
		if sr.err == nil && (class < Identifier || class > Sensitive) {
			return nil, fmt.Errorf("dataset: read snapshot: column %q: bad class %d", name, class)
		}
		cols = append(cols, Column{Name: name, Class: class, Kind: kind})
	}
	if sr.err != nil {
		return nil, fmt.Errorf("dataset: read snapshot: %w", sr.err)
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("dataset: read snapshot: %w", err)
	}
	t := &Table{schema: schema, nrows: int(nrows)}
	t.cols = make([]*colData, 0, min(ncols, snapAllocChunk))
	for i := uint64(0); i < ncols; i++ {
		c, err := sr.column(schema.Column(int(i)).Kind, int(nrows))
		if err != nil {
			return nil, fmt.Errorf("dataset: read snapshot: column %q: %w", schema.Column(int(i)).Name, err)
		}
		t.cols = append(t.cols, c)
	}
	// Everything consumed up to here is covered by the CRC; the trailer
	// itself is read without hashing.
	var trailer [4]byte
	if _, err := io.ReadFull(sr.r, trailer[:]); err != nil {
		return nil, fmt.Errorf("dataset: read snapshot: checksum trailer: %w", err)
	}
	if got, sum := binary.LittleEndian.Uint32(trailer[:]), sr.sum(); got != sum {
		return nil, fmt.Errorf("dataset: read snapshot: checksum mismatch (stored %08x, computed %08x)", got, sum)
	}
	return t, nil
}

// snapReader hashes exactly the bytes it consumes (not the bufio
// read-ahead), so the running CRC at the trailer covers the payload alone.
// Reads land back to back in one reused scratch buffer, and the checksum
// absorbs the buffer whenever it is about to be overwritten, so decoding a
// value costs neither an allocation nor a checksum call of its own.
type snapReader struct {
	r   *bufio.Reader
	crc uint32 // CRC-32 (IEEE) of the payload consumed before buf
	buf []byte // consumed payload not yet in crc; reused across reads
	err error
}

// snapAllocChunk caps upfront allocation while decoding length-prefixed
// buffers: runs are read in chunks of at most this many values and slices
// grow by append as chunks actually arrive, so a corrupt or truncated
// header claiming 2^40 rows fails with a read error once the stream runs
// dry instead of attempting a terabyte allocation before the checksum could
// ever be verified.
const snapAllocChunk = 1 << 16

// fill reads the next n payload bytes into the scratch buffer. It returns
// nil once the stream has failed; the returned slice is only valid until
// the next fill.
func (s *snapReader) fill(n int) []byte {
	if s.err != nil {
		return nil
	}
	if len(s.buf)+n > cap(s.buf) {
		s.sum()
		if n > cap(s.buf) {
			s.buf = make([]byte, 0, max(n, 2*cap(s.buf), 4096))
		}
	}
	b := s.buf[len(s.buf) : len(s.buf)+n]
	if _, err := io.ReadFull(s.r, b); err != nil {
		s.err = err
		return nil
	}
	s.buf = s.buf[:len(s.buf)+n]
	return b
}

// sum folds the buffered payload into the checksum and returns it.
func (s *snapReader) sum() uint32 {
	s.crc = crc32.Update(s.crc, crc32.IEEETable, s.buf)
	s.buf = s.buf[:0]
	return s.crc
}

// readRun reads a run of n values of width bytes each, decoding each with
// get. It reads in chunks of at most snapAllocChunk values — one fill, and
// so at most one checksum update, per chunk — and grows the result only as
// chunks arrive. It returns nil once the stream fails, leaving the error in
// s.err.
func readRun[T any](s *snapReader, n uint64, width int, get func([]byte) T) []T {
	vs := make([]T, 0, min(n, snapAllocChunk))
	for n > 0 {
		c := min(n, snapAllocChunk)
		buf := s.fill(int(c) * width)
		if buf == nil {
			return nil
		}
		for i := 0; i < len(buf); i += width {
			vs = append(vs, get(buf[i:]))
		}
		n -= c
	}
	return vs
}

func (s *snapReader) byte() byte {
	if b := s.fill(1); b != nil {
		return b[0]
	}
	return 0
}

func (s *snapReader) u64() uint64 {
	if b := s.fill(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (s *snapReader) str() string {
	n := s.u64()
	if s.err != nil {
		return ""
	}
	if n > 1<<30 {
		s.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	if n <= snapAllocChunk {
		return string(s.fill(int(n)))
	}
	// Longer strings grow by chunks as bytes actually arrive: a corrupt
	// length header must fail with a read error, not allocate a gigabyte
	// before the stream runs dry.
	return string(readRun(s, n, 1, func(b []byte) byte { return b[0] }))
}

func (s *snapReader) words(nrows int) (bitset, error) {
	n := s.u64()
	if s.err != nil {
		return nil, s.err
	}
	if max := uint64((nrows + 63) / 64); n > max {
		return nil, fmt.Errorf("bitmap has %d words for %d rows", n, nrows)
	}
	b := readRun(s, n, 8, binary.LittleEndian.Uint64)
	if s.err != nil {
		return nil, s.err
	}
	return b, nil
}

func (s *snapReader) floats(nrows int) ([]float64, error) {
	fs := readRun(s, uint64(nrows), 8, func(b []byte) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	})
	if s.err != nil {
		return nil, s.err
	}
	return fs, nil
}

// dict reads a text column's dictionary: nstrs length-prefixed strings.
func (s *snapReader) dict() (*intern, error) {
	nstrs := s.u64()
	if s.err != nil {
		return nil, s.err
	}
	if nstrs > 1<<32 {
		return nil, fmt.Errorf("implausible dictionary size %d", nstrs)
	}
	d := newIntern(int(min(nstrs, snapAllocChunk)))
	for i := uint64(0); i < nstrs; i++ {
		str := s.str()
		if s.err != nil {
			return nil, s.err
		}
		d.idx[str] = int32(len(d.strs))
		d.strs = append(d.strs, str)
	}
	return d, nil
}

// ids reads a text column's nrows dictionary ids, each checked against the
// dictionary unless the cell is suppressed.
func (s *snapReader) ids(nrows, nstrs int, nulls bitset) ([]int32, error) {
	ids := readRun(s, uint64(nrows), 4, func(b []byte) int32 {
		return int32(binary.LittleEndian.Uint32(b))
	})
	if s.err != nil {
		return nil, s.err
	}
	for i, id := range ids {
		if u := uint32(id); uint64(u) >= uint64(nstrs) && !nulls.get(i) {
			return nil, fmt.Errorf("row %d: dictionary id %d out of range (%d entries)", i, u, nstrs)
		}
	}
	return ids, nil
}

func (s *snapReader) column(kind ValueKind, nrows int) (*colData, error) {
	flags := s.byte()
	if s.err != nil {
		return nil, s.err
	}
	c := newColData(kind)
	c.n = nrows
	var err error
	if flags&snapHasNulls != 0 {
		if c.nulls, err = s.words(nrows); err != nil {
			return nil, err
		}
	}
	if flags&snapHasSpans != 0 {
		if c.spans, err = s.words(nrows); err != nil {
			return nil, err
		}
	}
	if flags&snapHasNum != 0 {
		if c.num, err = s.floats(nrows); err != nil {
			return nil, err
		}
	}
	if flags&snapHasHi != 0 {
		if c.hi, err = s.floats(nrows); err != nil {
			return nil, err
		}
	}
	if flags&snapHasText != 0 {
		if c.dict, err = s.dict(); err != nil {
			return nil, err
		}
		if c.ids, err = s.ids(nrows, len(c.dict.strs), c.nulls); err != nil {
			return nil, err
		}
	}
	// A live text cell must have a dictionary to resolve against.
	if kind == Text && c.ids == nil {
		for i := 0; i < nrows; i++ {
			if !c.nulls.get(i) {
				return nil, fmt.Errorf("row %d: text cell without a dictionary", i)
			}
		}
	}
	return c, nil
}
