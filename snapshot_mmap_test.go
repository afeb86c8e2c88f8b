package trajcover

// Mapped restore must be indistinguishable from the heap restores
// (Read*Snapshot): bit-identical answers, byte-identical re-snapshots,
// and the same loud-rejection contract for corrupt files — a truncated
// or flipped mapped file errors at open, never SIGBUSes or serves wrong
// values.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/trajcover/trajcover/internal/mmap"
)

// writeTempSnapshot materializes a snapshot stream as a file for the
// mapped open paths.
func writeTempSnapshot(t testing.TB, name string, write func(w *os.File) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// queryOracle is the answer surface we compare across restore paths.
type queryOracle interface {
	Len() int
	ServiceValues(facilities []*Facility, q Query, workers int) ([]float64, error)
	TopK(facilities []*Facility, k int, q Query) ([]Ranked, error)
}

// assertMappedAnswers requires got to answer bit-identically to want
// across scenarios, for both batch service values and top-k.
func assertMappedAnswers(t *testing.T, name string, want, got queryOracle) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: Len %d, want %d", name, got.Len(), want.Len())
	}
	ny := NewYorkCity()
	routes := BusRoutes(ny, 12, 6, 2)
	for _, sc := range []Scenario{Binary, PointCount, Length} {
		q := Query{Scenario: sc, Psi: DefaultPsi}
		wv, err := want.ServiceValues(routes, q, 2)
		if err != nil {
			t.Fatal(err)
		}
		gv, err := got.ServiceValues(routes, q, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wv {
			if math.Float64bits(wv[i]) != math.Float64bits(gv[i]) {
				t.Fatalf("%s: scenario %v facility %d: value %v, want %v (bit-exact)", name, sc, i, gv[i], wv[i])
			}
		}
		wr, err := want.TopK(routes, 4, q)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := got.TopK(routes, 4, q)
		if err != nil {
			t.Fatal(err)
		}
		compareRanked(t, sc, wr, gr)
	}
}

// TestMappedFrozenMatchesHeap: OpenMappedFrozenSnapshot answers
// bit-identically to ReadFrozenSnapshot of the same TQSNAP03 file, and
// re-snapshotting the mapped restore reproduces the file byte for byte.
func TestMappedFrozenMatchesHeap(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 60, 41)
	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := idx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	path := writeTempSnapshot(t, "frozen.tqsnap", func(w *os.File) error { return fz.WriteSnapshot(w) })

	mapped, err := OpenMappedFrozenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	assertMappedAnswers(t, "TQSNAP03 mapped", fz, mapped)

	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := mapped.WriteSnapshot(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, out.Bytes()) {
		t.Fatalf("mapped re-snapshot differs (%d vs %d bytes)", len(out.Bytes()), len(orig))
	}
}

// TestMappedFrozenShardedMatchesHeap: the sharded container, same
// contract.
func TestMappedFrozenShardedMatchesHeap(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 60, 41)
	sidx, err := NewShardedIndex(users, ShardOptions{Shards: 3, Index: IndexOptions{Ordering: ZOrdering}})
	if err != nil {
		t.Fatal(err)
	}
	sfz, err := sidx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	path := writeTempSnapshot(t, "frozen.tqshrd", func(w *os.File) error { return sfz.WriteSnapshot(w) })

	mapped, err := OpenMappedFrozenShardedSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.NumShards() != sfz.NumShards() {
		t.Fatalf("NumShards = %d, want %d", mapped.NumShards(), sfz.NumShards())
	}
	assertMappedAnswers(t, "TQSHRD02 mapped", sfz, mapped)

	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := mapped.WriteSnapshot(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, out.Bytes()) {
		t.Fatalf("mapped re-snapshot differs (%d vs %d bytes)", len(out.Bytes()), len(orig))
	}
}

// TestMappedLiveMatchesHeapAndStaysMutable: a mapped live restore
// answers bit-identically to the heap restore — and remains fully
// writable: inserts, deletes, and compaction (which folds the mapped
// base into a fresh heap base) all work on top of mapped columns.
func TestMappedLiveMatchesHeapAndStaysMutable(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 60, 41)
	lv := churnedLiveIndex(t, users)
	path := writeTempSnapshot(t, "live.tqlive", func(w *os.File) error { return lv.WriteSnapshot(w) })

	heap, err := func() (*LiveShardedIndex, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return ReadLiveSnapshot(bytes.NewReader(data), LivePolicy{Manual: true})
	}()
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMappedLiveSnapshot(path, LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	assertMappedAnswers(t, "TQLIVE01 mapped", heap, mapped)

	// Mutate both restores identically; answers must stay identical.
	extra := TaxiTrips(ny, 80, 97)[60:]
	for _, u := range extra {
		if err := heap.Insert(u); err != nil {
			t.Fatal(err)
		}
		if err := mapped.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range users[10:14] {
		if ok, err := heap.Delete(u.ID); err != nil || !ok {
			t.Fatalf("heap Delete(%d) = %v, %v", u.ID, ok, err)
		}
		if ok, err := mapped.Delete(u.ID); err != nil || !ok {
			t.Fatalf("mapped Delete(%d) = %v, %v", u.ID, ok, err)
		}
	}
	assertMappedAnswers(t, "TQLIVE01 mapped after churn", heap, mapped)

	// Compaction rebuilds heap bases from mapped trajectories; answers
	// must survive the fold.
	if err := mapped.Compact(); err != nil {
		t.Fatal(err)
	}
	assertMappedAnswers(t, "TQLIVE01 mapped after compact", heap, mapped)
}

// frozenFile is one frozen format's valid file image, wired to its heap
// restore (read) and its mapped open (open).
type frozenFile struct {
	name string
	data []byte
	read func(path string) (queryOracle, error)
	open func(path string) (queryOracle, error)
}

// readFile runs a Read*Snapshot heap restore over the file at path.
func readFile[T queryOracle](path string, read func(io.Reader) (T, error)) (queryOracle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}

// frozenFiles builds one small index per frozen layout and returns its
// file image with both restore paths.
func frozenFiles(t testing.TB) []frozenFile {
	t.Helper()
	ny := NewYorkCity()
	users := TaxiTrips(ny, 30, 41)
	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := idx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	sidx, err := NewShardedIndex(users, ShardOptions{Shards: 2, Index: IndexOptions{Ordering: ZOrdering}})
	if err != nil {
		t.Fatal(err)
	}
	sfz, err := sidx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	lv := churnedLiveIndex(t, users)
	var b1, b2, b3 bytes.Buffer
	if err := fz.WriteSnapshot(&b1); err != nil {
		t.Fatal(err)
	}
	if err := sfz.WriteSnapshot(&b2); err != nil {
		t.Fatal(err)
	}
	if err := lv.WriteSnapshot(&b3); err != nil {
		t.Fatal(err)
	}
	pol := LivePolicy{Manual: true}
	return []frozenFile{
		{"TQSNAP03", b1.Bytes(),
			func(p string) (queryOracle, error) { return readFile(p, ReadFrozenSnapshot) },
			func(p string) (queryOracle, error) { return OpenMappedFrozenSnapshot(p) }},
		{"TQSHRD02", b2.Bytes(),
			func(p string) (queryOracle, error) { return readFile(p, ReadFrozenShardedSnapshot) },
			func(p string) (queryOracle, error) { return OpenMappedFrozenShardedSnapshot(p) }},
		{"TQLIVE01", b3.Bytes(),
			func(p string) (queryOracle, error) {
				return readFile(p, func(r io.Reader) (*LiveShardedIndex, error) { return ReadLiveSnapshot(r, pol) })
			},
			func(p string) (queryOracle, error) { return OpenMappedLiveSnapshot(p, pol) }},
	}
}

// openMappedNoPanic runs a mapped open and converts panics to errors;
// the property is that corrupt mapped files fail loudly at open.
func openMappedNoPanic(open func(string) (queryOracle, error), path string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("PANIC: %v", r)
		}
	}()
	_, err = open(path)
	return err
}

// TestMappedSnapshotTruncation: every proper prefix of a valid snapshot
// file, and the file plus one trailing byte, is rejected by the mapped
// open with an error — never a panic and never an out-of-bounds fault
// (every cursor read is length-checked).
func TestMappedSnapshotTruncation(t *testing.T) {
	dir := t.TempDir()
	for _, f := range frozenFiles(t) {
		path := filepath.Join(dir, f.name)
		step := 1
		if len(f.data) > 2048 {
			step = 7
		}
		for cut := 0; cut < len(f.data); cut += step {
			if err := os.WriteFile(path, f.data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := openMappedNoPanic(f.open, path); err == nil {
				t.Fatalf("%s: mapped open of %d/%d-byte truncation accepted", f.name, cut, len(f.data))
			}
		}
		if err := os.WriteFile(path, append(bytes.Clone(f.data), 0), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := openMappedNoPanic(f.open, path); err == nil {
			t.Fatalf("%s: mapped open of %d-byte file plus one trailing byte accepted", f.name, len(f.data))
		}
	}
}

// TestMappedSnapshotBitFlip: flipping any single bit of a valid
// snapshot file is rejected by the mapped open — the CRCs are verified
// over the raw mapping before any column is trusted.
func TestMappedSnapshotBitFlip(t *testing.T) {
	dir := t.TempDir()
	for _, f := range frozenFiles(t) {
		path := filepath.Join(dir, f.name)
		data := f.data
		step := 1
		if len(data) > 2048 {
			step = 11
		}
		for i := 0; i < len(data); i += pick(i < 128 || i >= len(data)-8, 1, step) {
			data[i] ^= 1 << (i % 8)
			werr := os.WriteFile(path, data, 0o644)
			data[i] ^= 1 << (i % 8)
			if werr != nil {
				t.Fatal(werr)
			}
			if err := openMappedNoPanic(f.open, path); err == nil {
				t.Fatalf("%s: mapped open with bit flip at byte %d/%d accepted", f.name, i, len(data))
			}
		}
	}
}

// TestMappedOpenWrongFormat: each mapped open rejects the other
// formats' magics with a pointed error instead of misparsing.
func TestMappedOpenWrongFormat(t *testing.T) {
	formats := frozenFiles(t)
	dir := t.TempDir()
	for _, f := range formats {
		for _, g := range formats {
			if f.name == g.name {
				continue
			}
			path := filepath.Join(dir, "cross")
			if err := os.WriteFile(path, g.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := f.open(path); err == nil {
				t.Fatalf("%s open accepted a %s file", f.name, g.name)
			}
		}
	}
}

// TestMappedOpenMissingFile: opening a nonexistent path errors cleanly.
func TestMappedOpenMissingFile(t *testing.T) {
	if _, err := OpenMappedFrozenSnapshot(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("open of missing file succeeded")
	}
}

// TestMappedZeroCopyMode documents which alias mode this build runs:
// on little-endian builds the columns must alias the mapping (no copy).
func TestMappedZeroCopyMode(t *testing.T) {
	t.Logf("mmap zero-copy aliasing: %v", mmap.ZeroCopy())
}

// resealSnapshot returns a copy of a TQSNAP03/TQSHRD02/TQLIVE01 image
// with every checksum the layout still locates recomputed over the bytes
// it covers, so a mutation inside a column reaches the parser instead of
// stopping at a CRC. Container frames are resealed up to the first one
// whose length prefix runs past the end.
func resealSnapshot(data []byte) []byte {
	out := bytes.Clone(data)
	le := binary.LittleEndian
	size := uint64(len(out))
	if size < 12 {
		return out
	}
	switch [8]byte(out[:8]) {
	case frozenMagic:
		le.PutUint32(out[size-4:], crc32.ChecksumIEEE(out[:size-4]))
	case shardedFrozenMagic, liveMagic:
		if size < 20 {
			return out
		}
		kindLen := uint64(le.Uint32(out[16:]))
		off := 20 + kindLen
		if off+4 > size {
			return out
		}
		le.PutUint32(out[off:], crc32.ChecksumIEEE(out[:off]))
		off += 4 + pad8(kindLen)
		for off+8 <= size {
			n := le.Uint64(out[off:])
			start := off + 8
			if n > size-start || size-start-n < 4 {
				break
			}
			le.PutUint32(out[start+n:], crc32.ChecksumIEEE(out[start:start+n]))
			off = start + n + 8
		}
	}
	return out
}

// assertHeapMatchesMapped writes data to path and restores it both ways:
// the heap restore and the mapped open must both fail, or both succeed
// and answer bit-identically.
func assertHeapMatchesMapped(t *testing.T, ff frozenFile, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	heap, herr := ff.read(path)
	mapped, merr := ff.open(path)
	switch {
	case herr != nil && merr != nil:
	case herr == nil && merr == nil:
		assertMappedAnswers(t, ff.name, heap, mapped)
	case merr == nil && errors.Is(herr, errCachedGeometry):
		// The one allowed difference: only the heap restore recomputes
		// cached trajectory geometry from the points.
	default:
		t.Fatalf("%s (%d bytes): heap restore err = %v, mapped open err = %v", ff.name, len(data), herr, merr)
	}
}

// FuzzSnapshotHeapVsMapped: for each frozen format, the heap restore
// (Read*Snapshot) and the mapped open (OpenMapped*) of the same file
// agree — both reject it, or both accept it and answer TopK and
// ServiceValues bit-identically. Each input is checked as given and,
// when that differs, resealed, so mutations past the CRCs reach the
// column parser. Seeds: each valid image, its truncations, and the image
// plus one trailing byte.
func FuzzSnapshotHeapVsMapped(f *testing.F) {
	files := frozenFiles(f)
	for i, ff := range files {
		n := len(ff.data)
		f.Add(uint8(i), ff.data)
		for _, cut := range []int{0, 8, 12, 24, 40, n / 2, n - 5, n - 4, n - 1} {
			f.Add(uint8(i), ff.data[:cut])
		}
		f.Add(uint8(i), append(bytes.Clone(ff.data), 0))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		ff := files[int(which)%len(files)]
		dir := t.TempDir()
		assertHeapMatchesMapped(t, ff, filepath.Join(dir, "raw"), data)
		if sealed := resealSnapshot(data); !bytes.Equal(sealed, data) {
			assertHeapMatchesMapped(t, ff, filepath.Join(dir, "sealed"), sealed)
		}
	})
}

// TestHeapRestoreChecksCachedGeometry: a heap restore recomputes each
// trajectory's length and MBR from its points and rejects a record whose
// cached values disagree, even with every CRC resealed over the forgery.
// Here the first base trajectory's cached length is off by one ulp.
func TestHeapRestoreChecksCachedGeometry(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 30, 41)
	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := idx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	lv := churnedLiveIndex(t, users)
	cases := []struct {
		name  string
		write func(io.Writer) error
		first *Trajectory
		read  func(io.Reader) error
	}{
		{"TQSNAP03", fz.WriteSnapshot, fz.engine.Frozen().Trajectories()[0],
			func(r io.Reader) error { _, err := ReadFrozenSnapshot(r); return err }},
		{"TQLIVE01", lv.WriteSnapshot, lv.epochs()[0].Base().Frozen().Trajectories()[0],
			func(r io.Reader) error { _, err := ReadLiveSnapshot(r, LivePolicy{Manual: true}); return err }},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		lenBits := math.Float64bits(c.first.Length())
		rec := binary.LittleEndian.AppendUint32(nil, uint32(c.first.ID))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(c.first.Len()))
		rec = binary.LittleEndian.AppendUint64(rec, lenBits)
		at := bytes.Index(data, rec)
		if at < 0 || bytes.Contains(data[at+1:], rec) {
			t.Fatalf("%s: trajectory %d record not found exactly once", c.name, c.first.ID)
		}
		binary.LittleEndian.PutUint64(data[at+8:], lenBits+1)
		if err := c.read(bytes.NewReader(resealSnapshot(data))); !errors.Is(err, errCachedGeometry) {
			t.Fatalf("%s: forged cached length: err = %v, want the cached-geometry error", c.name, err)
		}
	}
}

// benchSnapshotPath builds a moderately sized frozen snapshot once per
// benchmark run.
func benchSnapshotPath(b *testing.B) string {
	b.Helper()
	ny := NewYorkCity()
	users := TaxiTrips(ny, 20000, 47)
	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		b.Fatal(err)
	}
	fz, err := idx.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	return writeTempSnapshot(b, "bench.tqsnap", func(w *os.File) error { return fz.WriteSnapshot(w) })
}

func BenchmarkHeapRestore(b *testing.B) {
	path := benchSnapshotPath(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ReadFrozenSnapshot(f); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

func BenchmarkMappedOpen(b *testing.B) {
	path := benchSnapshotPath(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenMappedFrozenSnapshot(path); err != nil {
			b.Fatal(err)
		}
	}
}
