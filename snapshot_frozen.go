package trajcover

// Frozen snapshot persistence: the writers, and the heap-restore entry
// points. Unlike TQSNAP02/TQSHRD01 — which store raw trajectories and
// rebuild the TQ-tree on restore — the frozen formats serialize the
// columnar index slices nearly verbatim:
//
//	TQSNAP03 — single frozen index: magic, frozen payload, CRC trailer.
//	TQSHRD02 — sharded frozen container: CRC'd shared header (shard
//	           count, partitioner kind), then one length-prefixed,
//	           individually CRC'd frozen payload per shard.
//
// A frozen payload is the column slices of tqtree.FrozenColumns in fixed
// order plus the trajectory table (in entry-slab first-appearance order,
// so entTraj indexes resolve by position).
//
// There is one decoder per format, and it runs over a []byte image of
// the whole file (snapshot_mmap.go). It has two sources: a heap restore
// (ReadFrozenSnapshot, ReadFrozenShardedSnapshot, ReadLiveSnapshot)
// reads the stream into one buffer and parses it with every column
// copied out; a mapped open (OpenMapped*) parses the file mapping with
// the columns aliased onto it. Either way a restore is the CRC check,
// bounds-checked takes, and the structural validation in
// tqtree.FrozenFromColumns — no tree rebuild, no sorting — which is
// what makes frozen restore several times faster than the rebuild
// formats.
//
// Every multi-byte column starts at an offset that is a multiple of 8
// from the payload start (zero pad bytes follow the int32 column groups
// and the container headers/frames where needed), and each trajectory
// record carries its precomputed length and MBR. 8-alignment lets the
// decoder view float64/uint64/Rect/Point columns in place (aliased by a
// mapped open, copied once by a heap restore), and the cached
// length/MBR make a mapped open O(columns) instead of O(points); a heap
// restore recomputes them from the points and requires a match. Pad
// bytes are covered by the CRCs like any other payload byte. This is an
// internal revision of the TQSNAP03/TQSHRD02 (and TQLIVE01) encodings;
// streams written by earlier builds are not readable, which these
// formats never promised.

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

var (
	frozenMagic        = [8]byte{'T', 'Q', 'S', 'N', 'A', 'P', '0', '3'}
	shardedFrozenMagic = [8]byte{'T', 'Q', 'S', 'H', 'R', 'D', '0', '2'}
)

// colWriter batches little-endian column writes through one buffer so a
// whole payload costs a handful of Write calls per column instead of one
// per value.
type colWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newColWriter(w io.Writer) *colWriter {
	return &colWriter{w: w, buf: make([]byte, 0, 1<<16)}
}

func (cw *colWriter) flushIfFull() {
	if len(cw.buf) >= (1<<16)-16 {
		cw.flush()
	}
}

func (cw *colWriter) flush() {
	if cw.err == nil && len(cw.buf) > 0 {
		_, cw.err = cw.w.Write(cw.buf)
	}
	cw.buf = cw.buf[:0]
}

func (cw *colWriter) u64(v uint64) {
	cw.buf = binary.LittleEndian.AppendUint64(cw.buf, v)
	cw.flushIfFull()
}

func (cw *colWriter) u32(v uint32) {
	cw.buf = binary.LittleEndian.AppendUint32(cw.buf, v)
	cw.flushIfFull()
}

func (cw *colWriter) u64s(vs []uint64) {
	for _, v := range vs {
		cw.u64(v)
	}
}

func (cw *colWriter) f64s(vs []float64) {
	for _, v := range vs {
		cw.u64(math.Float64bits(v))
	}
}

func (cw *colWriter) i32s(vs []int32) {
	for _, v := range vs {
		cw.u32(uint32(v))
	}
}

func (cw *colWriter) rects(vs []geo.Rect) {
	for _, r := range vs {
		cw.u64(math.Float64bits(r.MinX))
		cw.u64(math.Float64bits(r.MinY))
		cw.u64(math.Float64bits(r.MaxX))
		cw.u64(math.Float64bits(r.MaxY))
	}
}

func (cw *colWriter) points(vs []geo.Point) {
	for _, p := range vs {
		cw.u64(math.Float64bits(p.X))
		cw.u64(math.Float64bits(p.Y))
	}
}

// pad writes n zero bytes (n < 8; realigns the stream to 8 bytes after
// an int32 column group).
func (cw *colWriter) pad(n int) {
	for i := 0; i < n; i++ {
		cw.buf = append(cw.buf, 0)
	}
	cw.flushIfFull()
}

// pad8 returns the zero bytes needed to realign a stream to 8 after
// size bytes.
func pad8(size uint64) uint64 { return (8 - size%8) % 8 }

// i32Pad returns the pad after an n-value int32 column group.
func i32Pad(n uint64) int { return int(pad8(4 * n)) }

// frozenPayloadSize returns the exact encoded byte size of
// writeFrozenPayload's output — used to length-prefix TQSHRD02 frames
// without buffering them.
func frozenPayloadSize(f *tqtree.Frozen) uint64 {
	c := f.Columns()
	nn := uint64(len(c.NodeRect))
	nb := uint64(len(c.BktMinStart))
	ne := uint64(len(c.EntFirst))
	size := uint64(12 * 8)                            // header
	size += nn * 32                                   // node rects
	size += nn * 4 * 2                                // childBase, childCount
	size += (nn + 1) * 4                              // entryOff
	size += pad8(4 * (3*nn + 1))                      // realign after the int32 group
	size += nn * 8 * 2 * uint64(service.NumScenarios) // ownUB + treeUB
	if c.Ordering == tqtree.ZOrder {
		size += (nn + 1) * 4            // bucketOff
		size += (nb + 1) * 4            // bktEntryOff
		size += pad8(4 * (nn + nb + 2)) // realign after the int32 group
		size += nb * 8 * 2              // bktMinStart, bktMaxStart
		size += nb * 32 * 3             // bucket MBRs
	}
	size += ne * 16 * 2 // entFirst, entLast
	size += ne * 32     // entMBR
	size += ne * 4 * 2  // entTraj, entSeg (8·ne bytes — already 8-aligned)
	for _, t := range f.Trajectories() {
		size += frozenTrajectorySize(t)
	}
	return size
}

// frozenTrajectorySize is the encoded size of one frozen trajectory
// record: u32 id, u32 point count, f64 length, Rect MBR, then the
// points. 48+16n bytes — a multiple of 8, so records never break column
// alignment. (The rebuild formats keep the smaller trajectorySize
// record; only the frozen/live payloads cache length and MBR.)
func frozenTrajectorySize(t *trajectory.Trajectory) uint64 {
	return 4 + 4 + 8 + 32 + 16*uint64(t.Len())
}

// writeFrozenPayload encodes the frozen index: a fixed header, the column
// slices in fixed order, then the trajectory table.
func writeFrozenPayload(w io.Writer, f *tqtree.Frozen) error {
	c := f.Columns()
	cw := newColWriter(w)
	cw.u64(uint64(c.Variant))
	cw.u64(uint64(c.Ordering))
	cw.u64(uint64(c.Beta))
	cw.u64(uint64(c.MaxDepth))
	cw.u64(math.Float64bits(c.Bounds.MinX))
	cw.u64(math.Float64bits(c.Bounds.MinY))
	cw.u64(math.Float64bits(c.Bounds.MaxX))
	cw.u64(math.Float64bits(c.Bounds.MaxY))
	cw.u64(uint64(len(c.NodeRect)))
	cw.u64(uint64(len(c.BktMinStart)))
	cw.u64(uint64(len(c.EntFirst)))
	cw.u64(uint64(len(f.Trajectories())))

	nn := uint64(len(c.NodeRect))
	nb := uint64(len(c.BktMinStart))
	cw.rects(c.NodeRect)
	cw.i32s(c.ChildBase)
	cw.i32s(c.ChildCount)
	cw.i32s(c.EntryOff)
	cw.pad(i32Pad(3*nn + 1))
	cw.f64s(c.OwnUB)
	cw.f64s(c.TreeUB)
	if c.Ordering == tqtree.ZOrder {
		cw.i32s(c.BucketOff)
		cw.i32s(c.BktEntryOff)
		cw.pad(i32Pad(nn + nb + 2))
		cw.u64s(c.BktMinStart)
		cw.u64s(c.BktMaxStart)
		cw.rects(c.BktStartMBR)
		cw.rects(c.BktEndMBR)
		cw.rects(c.BktFullMBR)
	}
	cw.points(c.EntFirst)
	cw.points(c.EntLast)
	cw.rects(c.EntMBR)
	cw.i32s(c.EntTraj)
	cw.i32s(c.EntSeg)

	for _, t := range f.Trajectories() {
		cw.u32(uint32(t.ID))
		cw.u32(uint32(t.Len()))
		cw.u64(math.Float64bits(t.Length()))
		cw.rects([]geo.Rect{t.MBR()})
		cw.points(t.Points)
	}
	cw.flush()
	return cw.err
}

// WriteSnapshot serializes the frozen index as a TQSNAP03 stream: the
// columnar payload framed by a magic header and a CRC32 trailer.
func (x *FrozenIndex) WriteSnapshot(w io.Writer) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write(frozenMagic[:]); err != nil {
		return err
	}
	if err := writeFrozenPayload(mw, x.engine.Frozen()); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// ReadFrozenSnapshot restores a FrozenIndex written by
// (*FrozenIndex).WriteSnapshot. The stream is read to EOF and parsed by
// the same decoder as OpenMappedFrozenSnapshot, with every column copied
// to the heap — checksummed and bounds-checked, no tree rebuild. Bytes
// after the CRC trailer are an error, as are the other formats, which
// are rejected with a pointer to the right reader.
func ReadFrozenSnapshot(r io.Reader) (*FrozenIndex, error) {
	data, err := readSnapshotBytes(r)
	if err != nil {
		return nil, err
	}
	return parseFrozenSnapshot(data, nil)
}

// WriteSnapshot serializes the frozen sharded index as a TQSHRD02
// container: a CRC'd shared header (shard count, partitioner kind), then
// one length-prefixed, individually CRC'd frozen payload per shard.
// Per-frame checksums localize corruption to one shard and the length
// prefixes let tooling skip frames without decoding them.
func (x *FrozenShardedIndex) WriteSnapshot(w io.Writer) error {
	kind := x.s.PartitionerKind()

	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write(shardedFrozenMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint64(x.s.NumShards())); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint32(len(kind))); err != nil {
		return err
	}
	if _, err := io.WriteString(mw, kind); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	// Realign so every frame's payload starts 8-aligned in the file (the
	// header is 24+len(kind) bytes, each frame 8+payload+4+4): the mapped
	// reader aliases columns at file offsets.
	if _, err := w.Write(make([]byte, pad8(uint64(len(kind))))); err != nil {
		return err
	}

	for i := 0; i < x.s.NumShards(); i++ {
		f := x.s.Engine(i).Frozen()
		if err := binary.Write(w, binary.LittleEndian, frozenPayloadSize(f)); err != nil {
			return err
		}
		fcrc := crc32.NewIEEE()
		if err := writeFrozenPayload(io.MultiWriter(w, fcrc), f); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, fcrc.Sum32()); err != nil {
			return err
		}
		if _, err := w.Write([]byte{0, 0, 0, 0}); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrozenShardedSnapshot restores a FrozenShardedIndex written by
// (*FrozenShardedIndex).WriteSnapshot: ReadFrozenSnapshot's read-then-
// parse, one frame per shard. Bytes after the last frame are an error.
func ReadFrozenShardedSnapshot(r io.Reader) (*FrozenShardedIndex, error) {
	data, err := readSnapshotBytes(r)
	if err != nil {
		return nil, err
	}
	return parseFrozenShardedSnapshot(data, nil)
}
