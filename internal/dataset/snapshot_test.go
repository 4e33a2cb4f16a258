package dataset

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// snapshotFixture builds a table exercising every storage feature the codec
// serializes: plain numbers, intervals (hi buffer + span bitmap), suppressed
// cells (null bitmap), dictionary text with repeats, and a fully suppressed
// bufferless column (the zero-copy SuppressColumn representation).
func snapshotFixture(t *testing.T) *Table {
	t.Helper()
	s := MustSchema(
		Column{Name: "Name", Class: Identifier, Kind: Text},
		Column{Name: "Dept", Class: QuasiIdentifier, Kind: Text},
		Column{Name: "Age", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Income", Class: Sensitive, Kind: Number},
	)
	tb := New(s)
	tb.MustAppendRow(Str("Alice"), Str("CS"), Num(28), Num(91250))
	tb.MustAppendRow(Str("Bob"), Str("EE"), Span(25, 30), Num(60125.5))
	tb.MustAppendRow(Str("Carol"), Str("CS"), NullValue(), Num(123456.75))
	tb.MustAppendRow(Str("Dave"), NullValue(), Span(40, 45), Num(71000))
	return tb.WithSuppressed(3)
}

func fingerprintOf(t *testing.T, tab *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteFingerprint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTripFingerprint: the snapshot round-trip preserves the
// canonical fingerprint bit for bit — the property the disk store's
// content-addressed files rely on.
func TestSnapshotRoundTripFingerprint(t *testing.T) {
	orig := snapshotFixture(t)
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(got) {
		t.Fatal("snapshot round-trip changed the table")
	}
	want := fingerprintOf(t, orig)
	have := fingerprintOf(t, got)
	if !bytes.Equal(want, have) {
		t.Fatalf("fingerprint changed across the round-trip (%d vs %d bytes)", len(want), len(have))
	}
	// The reconstructed table must stay fully usable: mutate a copy without
	// disturbing the original (COW ownership survives deserialization).
	clone := got.Clone()
	if err := clone.SetCell(0, 2, Num(99)); err != nil {
		t.Fatal(err)
	}
	if got.Cell(0, 2).String() == clone.Cell(0, 2).String() {
		t.Fatal("mutating a clone of the deserialized table leaked into the original")
	}
}

// TestSnapshotRoundTripEmptyBuffers: a table of only suppressed cells (nil
// value buffers) and an empty table both round-trip.
func TestSnapshotRoundTripEmptyBuffers(t *testing.T) {
	s := MustSchema(
		Column{Name: "A", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "B", Class: Identifier, Kind: Text},
	)
	empty := New(s)
	sup := New(s)
	sup.MustAppendRow(Num(1), Str("x"))
	sup.MustAppendRow(Num(2), Str("y"))
	sup = sup.WithSuppressed(0, 1)
	for name, tab := range map[string]*Table{"empty": empty, "all-suppressed": sup} {
		var buf bytes.Buffer
		if err := tab.WriteSnapshot(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !tab.Equal(got) {
			t.Fatalf("%s: round-trip changed the table", name)
		}
		if !bytes.Equal(fingerprintOf(t, tab), fingerprintOf(t, got)) {
			t.Fatalf("%s: fingerprint changed", name)
		}
	}
}

// TestSnapshotDetectsCorruption: a flipped payload byte, a truncated stream
// and a wrong magic all fail loudly instead of yielding a table.
func TestSnapshotDetectsCorruption(t *testing.T) {
	orig := snapshotFixture(t)
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one byte in the middle of the payload: checksum must catch it
	// (unless the decoder already rejects the malformed structure).
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadSnapshot(bytes.NewReader(flipped)); err == nil {
		t.Error("corrupted payload accepted")
	}

	// Truncation anywhere — including inside the trailer — is an error.
	for _, cut := range []int{len(raw) - 1, len(raw) - 4, len(raw) / 2, 8} {
		if _, err := ReadSnapshot(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncated snapshot (%d of %d bytes) accepted", cut, len(raw))
		}
	}

	// A stream that is not a snapshot at all.
	if _, err := ReadSnapshot(strings.NewReader("Name,Age\nid:text,qi:number\n")); err == nil {
		t.Error("non-snapshot stream accepted")
	}
}

// roundTripBenchTable is BenchmarkSnapshotRoundTrip's mixed table: a
// repeating text column, an interval QI and two plain numbers.
func roundTripBenchTable() *Table {
	s := MustSchema(
		Column{Name: "Name", Class: Identifier, Kind: Text},
		Column{Name: "Age", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Zip", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Income", Class: Sensitive, Kind: Number},
	)
	tb := New(s)
	for i := 0; i < 4096; i++ {
		tb.MustAppendRow(Str("user"+string(rune('a'+i%26))), Span(float64(i), float64(i+5)), Num(float64(i%97)), Num(float64(i)*1.5))
	}
	return tb
}

// TestSnapshotBytesStable pins the on-disk format: the snapshot bytes of
// two fixed tables must hash to fixed digests of the version-1 layout, so
// data directories written by earlier builds stay readable and
// content-addressed blobs keep their names.
func TestSnapshotBytesStable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tab   *Table
		bytes int
		sha   string
	}{
		{"fixture", snapshotFixture(t), 342, "11b52669aad327fde1fb02100a61c69612fac338c8a309328b601a6fc80c005e"},
		{"round-trip bench", roundTripBenchTable(), 148418, "072002001fd6fda67c080612e3c84418ba385d991591483bdb1a8f38cc662ded"},
	} {
		var buf bytes.Buffer
		if err := tc.tab.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != tc.bytes || got != tc.sha {
			t.Errorf("%s: snapshot is %d bytes with sha256 %s, want %d bytes with %s", tc.name, buf.Len(), got, tc.bytes, tc.sha)
		}
	}
}

// chunkEdgeTable builds an n-row table whose runs straddle the decoder's
// chunk size: a plain number column (num run), an interval column with
// suppressed cells (span and null bitmaps, num and hi runs) and a text
// column whose dictionary holds one string longer than a chunk.
func chunkEdgeTable(n int) *Table {
	s := MustSchema(
		Column{Name: "X", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Age", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Name", Class: Identifier, Kind: Text},
	)
	long := strings.Repeat("0123456789abcdef", 3*snapAllocChunk/16) + "tail"
	tb := New(s)
	for i := 0; i < n; i++ {
		age := Span(float64(i%90), float64(i%90+5))
		if i%7 == 0 {
			age = NullValue()
		}
		name := Str(fmt.Sprintf("p%d", i%1000))
		if i == n/2 {
			name = Str(long)
		}
		tb.MustAppendRow(Num(float64(i)*0.25), age, name)
	}
	return tb
}

// TestSnapshotChunkEdges round-trips tables one row below, at and above the
// decoder's chunk size, plus a dictionary string spanning several chunks:
// each must come back with an identical fingerprint.
func TestSnapshotChunkEdges(t *testing.T) {
	for _, n := range []int{snapAllocChunk - 1, snapAllocChunk, snapAllocChunk + 1} {
		orig := chunkEdgeTable(n)
		var buf bytes.Buffer
		if err := orig.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("%d rows: %v", n, err)
		}
		if !bytes.Equal(fingerprintOf(t, orig), fingerprintOf(t, got)) {
			t.Fatalf("%d rows: fingerprint changed across the round-trip", n)
		}
	}
}

// TestSnapshotTruncatedAtChunkBoundary cuts the stream exactly where the
// decoder's chunks begin and end — where one chunk read completes cleanly
// and the next finds the stream dry — and one byte either side. Every cut
// must fail.
func TestSnapshotTruncatedAtChunkBoundary(t *testing.T) {
	const n = snapAllocChunk + 1
	s := MustSchema(
		Column{Name: "X", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Name", Class: Identifier, Kind: Text},
	)
	long := strings.Repeat("z", 2*snapAllocChunk+3)
	tb := New(s)
	for i := 0; i < n; i++ {
		name := "a"
		if i == 1 {
			name = long
		}
		tb.MustAppendRow(Num(float64(i)), Str(name))
	}
	var buf bytes.Buffer
	if err := tb.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Layout: 32-byte header, column defs "X" (8+1+2) and "Name" (8+4+2),
	// then X = flags + n floats, then Name = flags + nstrs + "a" (8+1) +
	// long (8+len) + n ids, then the 4-byte trailer.
	numStart := 32 + 11 + 14 + 1
	longStart := numStart + 8*n + 1 + 8 + 9 + 8
	idsStart := longStart + len(long)
	if want := idsStart + 4*n + 4; len(raw) != want {
		t.Fatalf("snapshot is %d bytes, layout arithmetic expects %d", len(raw), want)
	}
	cuts := []int{
		numStart, numStart + 8*snapAllocChunk, numStart + 8*n,
		longStart, longStart + snapAllocChunk, longStart + 2*snapAllocChunk, idsStart,
		idsStart + 4*snapAllocChunk, idsStart + 4*n,
	}
	for _, cut := range cuts {
		for _, c := range []int{cut - 1, cut, cut + 1} {
			if _, err := ReadSnapshot(bytes.NewReader(raw[:c])); err == nil {
				t.Errorf("snapshot truncated at byte %d of %d accepted", c, len(raw))
			}
		}
	}
}

// BenchmarkSnapshotRoundTrip measures the codec on a mixed table — the CI
// smoke keeps it compiling and within one iteration of sanity.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	tb := roundTripBenchTable()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tb.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// sweepResultTable is shaped like a sweep's result blob — what recovery
// reads back per distinct result: 10⁵ rows, an identifier text column of
// 10⁵ distinct names (kept in the release), three interval QIs and a
// suppressed sensitive column.
func sweepResultTable() *Table {
	const n = 100_000
	s := MustSchema(
		Column{Name: "Name", Class: Identifier, Kind: Text},
		Column{Name: "Age", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Zip", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Tenure", Class: QuasiIdentifier, Kind: Number},
		Column{Name: "Salary", Class: Sensitive, Kind: Number},
	)
	tb := New(s)
	for i := 0; i < n; i++ {
		g := float64(i / 8)
		tb.MustAppendRow(Str(fmt.Sprintf("person-%06d", i)),
			Span(20+g, 25+g), Span(1000*g, 1000*g+999), Span(g/4, g/4+2), Num(40000+float64(i%1000)*100))
	}
	return tb.WithSuppressed(4)
}

// BenchmarkReadSnapshot measures decoding one sweep result blob.
func BenchmarkReadSnapshot(b *testing.B) {
	var buf bytes.Buffer
	if err := sweepResultTable().WriteSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSnapshot(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteSnapshot measures encoding one sweep result blob.
func BenchmarkWriteSnapshot(b *testing.B) {
	tb := sweepResultTable()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tb.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
