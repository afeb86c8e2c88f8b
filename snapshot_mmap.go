package trajcover

// The frozen snapshot decoder. TQSNAP03, TQSHRD02 and TQLIVE01 each have
// exactly one parser, and it runs over a []byte image of the whole file.
// Two sources feed it:
//
//   - A heap restore (Read*Snapshot) reads the stream into one buffer,
//     sized exactly when the reader can report its length, and parses it
//     in owning mode: every column and each trajectory's points are
//     copied out, so the buffer is garbage once the parse returns, and
//     each trajectory's cached length and MBR are recomputed from its
//     points and must match.
//   - A mapped open (OpenMapped*Snapshot) maps the file via internal/mmap
//     and parses it in aliasing mode: the column slices (node rects,
//     upper-bound columns, bucket and entry slabs, trajectory points)
//     alias the mapping — zero-copy on little-endian hosts; elsewhere the
//     views decode into heap and everything below still holds — and each
//     trajectory adopts its cached length and MBR, so the open costs one
//     CRC pass plus the structural validation and never parses point
//     data. The OS pages the columns in and out on demand, so one process
//     can serve snapshots larger than RAM and restarts touch only the
//     pages a query walks.
//
// The mode is whether the parse has a pin (the mapping's token): nil
// means owning.
//
// Lifetime. Aliased slices are views into the mapping, so the mapping
// must outlive every object that can reach one. Each mapped file gets
// one token holding the mapping; the restored tqtree.Frozen pins the
// token (Frozen.SetPin), and every mapped trajectory pins it too
// (trajectory.FromParts) — the latter matters because a background
// rebuild builds a fresh heap base that keeps referencing the *same*
// trajectory objects, so the mapping stays alive exactly as long as any
// epoch (original or rebuilt) can still dereference mapped points, and
// is released by the token's finalizer when the last such epoch is
// dropped. Query entry points pin their engine with runtime.KeepAlive so
// the finalizer cannot fire mid-query. Background rebuilds therefore
// retire a mapping naturally: once compaction has folded every mapped
// trajectory out of the live set and the old epochs are gone, the token
// becomes unreachable and the file is unmapped.
//
// Integrity. The CRCs (trailer for TQSNAP03, header+frame for the
// containers) are verified over the raw bytes before any column is
// trusted; every cursor read is bounds-checked against the image, every
// count goes through the plausibility checks and the structural
// validation in tqtree.FrozenFromColumns, and bytes left over after the
// last frame or trailer are an error — a truncated, padded or
// bit-flipped file is a loud ErrBadSnapshot at restore, never a fault
// inside a query.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"slices"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/mmap"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// errCachedGeometry is the rejection only a heap restore makes: a
// trajectory record whose cached length/MBR disagree with its points.
var errCachedGeometry = fmt.Errorf("%w: trajectory cached length/MBR disagree with points", ErrBadSnapshot)

// mappedToken owns one reference to a file mapping on behalf of every
// index object restored from it. The finalizer releases the mapping
// when the last pinning object (Frozen or Trajectory) is collected.
type mappedToken struct {
	m *mmap.Mapping
}

func newMappedToken(m *mmap.Mapping) *mappedToken {
	t := &mappedToken{m: m}
	runtime.SetFinalizer(t, func(t *mappedToken) { t.m.Release() })
	return t
}

// drop abandons the token on an open-error path: the finalizer is
// cleared and the mapping released immediately.
func (t *mappedToken) drop() {
	runtime.SetFinalizer(t, nil)
	t.m.Release()
}

// openMapped maps the file at path and parses it in aliasing mode. The
// mapping is released at once if the parse fails.
func openMapped[T any](path string, parse func(data []byte, pin any) (T, error)) (T, error) {
	m, err := mmap.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	tok := newMappedToken(m)
	x, err := parse(m.Data(), tok)
	if err != nil {
		tok.drop()
	}
	return x, err
}

// readSnapshotBytes reads r to EOF into one buffer for an owning parse.
// The buffer is sized exactly when r reports its remaining length (a
// regular *os.File, a bytes.Reader); otherwise it doubles as it fills.
func readSnapshotBytes(r io.Reader) ([]byte, error) {
	size := 1 << 16
	switch v := r.(type) {
	case interface{ Len() int }:
		size = v.Len()
	case *os.File:
		if st, err := v.Stat(); err == nil && st.Mode().IsRegular() {
			if off, err := v.Seek(0, io.SeekCurrent); err == nil && off <= st.Size() {
				size = int(st.Size() - off)
			}
		}
	}
	buf := make([]byte, 0, size+1) // +1: reach EOF without growing
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf))
		}
	}
}

// checkMagic requires data to start with want, and names the right
// reader when it starts with another known format.
func checkMagic(data []byte, want [8]byte) error {
	if len(data) < 8 {
		return fmt.Errorf("%w: truncated snapshot", ErrBadSnapshot)
	}
	got := [8]byte(data)
	if got == want {
		return nil
	}
	switch got {
	case snapshotMagic, snapshotMagicV1:
		return fmt.Errorf("%w: rebuild-format snapshot; use ReadSnapshot", ErrBadSnapshot)
	case shardedMagic:
		return fmt.Errorf("%w: rebuild-format sharded snapshot; use ReadShardedSnapshot", ErrBadSnapshot)
	case frozenMagic:
		return fmt.Errorf("%w: frozen snapshot; use ReadFrozenSnapshot or OpenMappedFrozenSnapshot", ErrBadSnapshot)
	case shardedFrozenMagic:
		return fmt.Errorf("%w: frozen sharded snapshot; use ReadFrozenShardedSnapshot or OpenMappedFrozenShardedSnapshot", ErrBadSnapshot)
	case liveMagic:
		return fmt.Errorf("%w: live snapshot; use ReadLiveSnapshot or OpenMappedLiveSnapshot", ErrBadSnapshot)
	}
	return fmt.Errorf("%w: bad magic", ErrBadSnapshot)
}

// snapCursor is the bounds-checked reader over a snapshot image. Every
// take is validated against the remaining length, so corrupt counts
// produce ErrBadSnapshot instead of an out-of-range slice. pin is the
// mapping's token in aliasing mode and nil in owning mode.
type snapCursor struct {
	b   []byte
	off int
	pin any
}

func (c *snapCursor) remaining() int { return len(c.b) - c.off }

func (c *snapCursor) take(n uint64) ([]byte, error) {
	if n > uint64(c.remaining()) {
		return nil, fmt.Errorf("%w: truncated payload (need %d bytes, have %d)", ErrBadSnapshot, n, c.remaining())
	}
	b := c.b[c.off : c.off+int(n) : c.off+int(n)]
	c.off += int(n)
	return b, nil
}

func (c *snapCursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *snapCursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// zeros takes n pad bytes and requires them to be zero. Container pads
// sit outside the header/frame CRCs, so this check is what keeps a
// flipped pad bit a loud error.
func (c *snapCursor) zeros(n uint64) error {
	pad, err := c.take(n)
	if err != nil {
		return err
	}
	for _, b := range pad {
		if b != 0 {
			return fmt.Errorf("%w: nonzero padding", ErrBadSnapshot)
		}
	}
	return nil
}

// end requires the cursor to be fully consumed.
func (c *snapCursor) end() error {
	if c.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, c.remaining())
	}
	return nil
}

// column takes n values of width bytes each and views them as []T:
// aliased onto the mapping in aliasing mode, copied out in owning mode.
func column[T any](c *snapCursor, n, width uint64, view func([]byte) []T) ([]T, error) {
	b, err := c.take(n * width)
	if err != nil {
		return nil, err
	}
	if c.pin == nil {
		return slices.Clone(view(b)), nil
	}
	return view(b), nil
}

func (c *snapCursor) rects(n uint64) ([]geo.Rect, error)   { return column(c, n, 32, mmap.Rects) }
func (c *snapCursor) points(n uint64) ([]geo.Point, error) { return column(c, n, 16, mmap.Points) }
func (c *snapCursor) i32s(n uint64) ([]int32, error)       { return column(c, n, 4, mmap.I32s) }
func (c *snapCursor) f64s(n uint64) ([]float64, error)     { return column(c, n, 8, mmap.F64s) }
func (c *snapCursor) u64s(n uint64) ([]uint64, error)      { return column(c, n, 8, mmap.U64s) }
func (c *snapCursor) u32s(n uint64) ([]uint32, error)      { return column(c, n, 4, mmap.U32s) }

// parseFrozenPayload parses a frozen payload (header, columns,
// trajectory table) and reassembles the index, structural validation
// included.
func parseFrozenPayload(cur *snapCursor) (*tqtree.Frozen, *trajectory.Set, error) {
	var header [12]uint64
	for i := range header {
		v, err := cur.u64()
		if err != nil {
			return nil, nil, err
		}
		header[i] = v
	}
	c := tqtree.FrozenColumns{
		Variant:  tqtree.Variant(header[0]),
		Ordering: tqtree.Ordering(header[1]),
		Beta:     int(header[2]),
		MaxDepth: int(header[3]),
		Bounds: geo.Rect{
			MinX: math.Float64frombits(header[4]),
			MinY: math.Float64frombits(header[5]),
			MaxX: math.Float64frombits(header[6]),
			MaxY: math.Float64frombits(header[7]),
		},
	}
	nn, nb, ne, nt := header[8], header[9], header[10], header[11]
	if c.Ordering != tqtree.ZOrder && c.Ordering != tqtree.Basic {
		return nil, nil, fmt.Errorf("%w: invalid ordering %d", ErrBadSnapshot, header[1])
	}
	// Structural plausibility before any large take: every bucket holds
	// at least one entry and every indexed trajectory contributes at
	// least one entry, so corrupt counts fail here.
	const maxCount = 1 << 31
	if nn == 0 || nn > maxCount || ne > maxCount || nb > ne || nt > ne || (ne > 0 && nt == 0) {
		return nil, nil, fmt.Errorf("%w: implausible frozen counts (nodes %d, buckets %d, entries %d, trajectories %d)",
			ErrBadSnapshot, nn, nb, ne, nt)
	}
	if c.Ordering == tqtree.Basic && nb != 0 {
		return nil, nil, fmt.Errorf("%w: basic ordering with %d buckets", ErrBadSnapshot, nb)
	}

	var err error
	if c.NodeRect, err = cur.rects(nn); err == nil {
		if c.ChildBase, err = cur.i32s(nn); err == nil {
			c.ChildCount, err = cur.i32s(nn)
		}
	}
	if err == nil {
		c.EntryOff, err = cur.i32s(nn + 1)
	}
	if err == nil {
		_, err = cur.take(pad8(4 * (3*nn + 1)))
	}
	if err == nil {
		c.OwnUB, err = cur.f64s(nn * uint64(service.NumScenarios))
	}
	if err == nil {
		c.TreeUB, err = cur.f64s(nn * uint64(service.NumScenarios))
	}
	if err == nil && c.Ordering == tqtree.ZOrder {
		c.BucketOff, err = cur.i32s(nn + 1)
		if err == nil {
			c.BktEntryOff, err = cur.i32s(nb + 1)
		}
		if err == nil {
			_, err = cur.take(pad8(4 * (nn + nb + 2)))
		}
		if err == nil {
			c.BktMinStart, err = cur.u64s(nb)
		}
		if err == nil {
			c.BktMaxStart, err = cur.u64s(nb)
		}
		if err == nil {
			c.BktStartMBR, err = cur.rects(nb)
		}
		if err == nil {
			c.BktEndMBR, err = cur.rects(nb)
		}
		if err == nil {
			c.BktFullMBR, err = cur.rects(nb)
		}
	}
	if err == nil {
		c.EntFirst, err = cur.points(ne)
	}
	if err == nil {
		c.EntLast, err = cur.points(ne)
	}
	if err == nil {
		c.EntMBR, err = cur.rects(ne)
	}
	if err == nil {
		c.EntTraj, err = cur.i32s(ne)
	}
	if err == nil {
		c.EntSeg, err = cur.i32s(ne)
	}
	if err != nil {
		return nil, nil, err
	}

	trajs, err := cur.trajectories(nt)
	if err != nil {
		return nil, nil, err
	}
	set, err := trajectory.NewSetLazy(trajs)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	f, err := tqtree.FrozenFromColumns(c, trajs)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	f.SetPin(cur.pin)
	return f, set, nil
}

// minTrajRecordBytes is the smallest possible encoded trajectory
// record: id + point count + length bits + MBR + the two-point
// minimum. It bounds how many records the remaining bytes can hold.
const minTrajRecordBytes = 4 + 4 + 8 + 32 + 2*16

// trajectories parses n consecutive frozen trajectory records, after
// checking the cursor can possibly hold n, so a corrupt count cannot
// force a huge allocation.
//
// In aliasing mode each record adopts its cached length and MBR, and the
// records share one arena allocation (the mapping outlives them anyway).
// In owning mode the points are already fresh copies, so length and MBR
// are recomputed from them (the writer's arithmetic, so bit-equal) and
// must match the cached values — a writer bug or a CRC-resealed forgery
// fails here instead of diverging the two restore paths. Each owned
// trajectory is its own allocation, so deleting one frees its points.
func (c *snapCursor) trajectories(n uint64) ([]*trajectory.Trajectory, error) {
	if n > uint64(c.remaining())/minTrajRecordBytes {
		return nil, fmt.Errorf("%w: trajectory count %d exceeds remaining bytes", ErrBadSnapshot, n)
	}
	ts := make([]*trajectory.Trajectory, n)
	var arena []trajectory.Trajectory
	if c.pin != nil {
		arena = make([]trajectory.Trajectory, n)
	}
	for i := range ts {
		id, pts, lenBits, mbr, err := c.trajectoryRecord(i)
		if err != nil {
			return nil, err
		}
		if c.pin == nil {
			t, err := trajectory.New(id, pts)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
			if math.Float64bits(t.Length()) != lenBits || t.MBR() != mbr {
				return nil, fmt.Errorf("%w (trajectory %d)", errCachedGeometry, i)
			}
			ts[i] = t
			continue
		}
		if err := trajectory.FromPartsInto(&arena[i], id, pts, math.Float64frombits(lenBits), mbr, c.pin); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		ts[i] = &arena[i]
	}
	return ts, nil
}

// trajectoryRecord takes one frozen trajectory record: u32 id, u32 point
// count, f64 length bits, Rect MBR, then the points.
func (c *snapCursor) trajectoryRecord(i int) (trajectory.ID, []geo.Point, uint64, geo.Rect, error) {
	head, err := c.take(16)
	if err != nil {
		return 0, nil, 0, geo.Rect{}, fmt.Errorf("%w: truncated trajectory %d", ErrBadSnapshot, i)
	}
	npts := binary.LittleEndian.Uint32(head[4:])
	if npts < 2 || npts > 1<<24 {
		return 0, nil, 0, geo.Rect{}, fmt.Errorf("%w: trajectory %d has %d points", ErrBadSnapshot, i, npts)
	}
	mbr, err := c.take(32)
	if err != nil {
		return 0, nil, 0, geo.Rect{}, fmt.Errorf("%w: truncated trajectory %d", ErrBadSnapshot, i)
	}
	pts, err := c.points(uint64(npts))
	if err != nil {
		return 0, nil, 0, geo.Rect{}, err
	}
	id := trajectory.ID(binary.LittleEndian.Uint32(head))
	return id, pts, binary.LittleEndian.Uint64(head[8:]), mmap.Rects(mbr)[0], nil
}

// parseLivePayload parses one TQLIVE01 frame: the frozen base, then the
// tombstones and delta, revalidated against the base.
func parseLivePayload(cur *snapCursor) (*query.Epoch, error) {
	f, set, err := parseFrozenPayload(cur)
	if err != nil {
		return nil, err
	}
	nDead, err := cur.u64()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated tombstones", ErrBadSnapshot)
	}
	if nDead > uint64(set.Len()) {
		return nil, fmt.Errorf("%w: %d tombstones over %d base trajectories", ErrBadSnapshot, nDead, set.Len())
	}
	deadIDs, err := cur.u32s(nDead)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated tombstones", ErrBadSnapshot)
	}
	dead := make(map[trajectory.ID]struct{}, nDead)
	for _, id := range deadIDs {
		dead[trajectory.ID(id)] = struct{}{}
	}
	if uint64(len(dead)) != nDead {
		return nil, fmt.Errorf("%w: duplicate tombstone ids", ErrBadSnapshot)
	}
	if _, err := cur.take(pad8(4 * nDead)); err != nil {
		return nil, err
	}
	nDelta, err := cur.u64()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated delta", ErrBadSnapshot)
	}
	if nDelta > maxTrajectories {
		return nil, fmt.Errorf("%w: implausible delta count %d", ErrBadSnapshot, nDelta)
	}
	delta, err := cur.trajectories(nDelta)
	if err != nil {
		return nil, err
	}
	ep, err := query.NewEpoch(query.NewFrozenEngine(f, set), delta, dead, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return ep, nil
}

// parseFrozenSnapshot parses a TQSNAP03 image: magic, frozen payload,
// and a CRC32 trailer over everything before it.
func parseFrozenSnapshot(data []byte, pin any) (*FrozenIndex, error) {
	if err := checkMagic(data, frozenMagic); err != nil {
		return nil, err
	}
	if len(data) < 12 {
		return nil, fmt.Errorf("%w: truncated snapshot", ErrBadSnapshot)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	cur := &snapCursor{b: body[8:], pin: pin}
	f, set, err := parseFrozenPayload(cur)
	if err == nil {
		err = cur.end()
	}
	if err != nil {
		return nil, err
	}
	return &FrozenIndex{engine: query.NewFrozenEngine(f, set), set: set}, nil
}

// parseContainer parses a TQSHRD02/TQLIVE01 image: magic, a CRC'd
// header (shard count, partitioner kind) realigned to 8, then one
// length-prefixed, CRC'd, zero-padded frame per shard. parseFrame gets
// a cursor over each frame's payload and must consume all of it.
// Returns the partitioner kind.
func parseContainer(data []byte, magic [8]byte, pin any, parseFrame func(*snapCursor) error) (string, error) {
	if err := checkMagic(data, magic); err != nil {
		return "", err
	}
	cur := &snapCursor{b: data, off: 8}
	nShards, err := cur.u64()
	if err != nil {
		return "", err
	}
	kindLen, err := cur.u32()
	if err != nil {
		return "", err
	}
	if kindLen > 256 {
		return "", fmt.Errorf("%w: implausible partitioner kind length %d", ErrBadSnapshot, kindLen)
	}
	kind, err := cur.take(uint64(kindLen))
	if err != nil {
		return "", err
	}
	wantHdr := crc32.ChecksumIEEE(data[:cur.off])
	if gotHdr, err := cur.u32(); err != nil {
		return "", fmt.Errorf("%w: missing header checksum", ErrBadSnapshot)
	} else if gotHdr != wantHdr {
		return "", fmt.Errorf("%w: header checksum mismatch", ErrBadSnapshot)
	}
	if err := cur.zeros(pad8(uint64(kindLen))); err != nil {
		return "", err
	}
	const maxShards = 1 << 16
	if nShards == 0 || nShards > maxShards {
		return "", fmt.Errorf("%w: implausible shard count %d", ErrBadSnapshot, nShards)
	}
	for s := uint64(0); s < nShards; s++ {
		payloadLen, err := cur.u64()
		if err != nil {
			return "", fmt.Errorf("%w: truncated frame %d", ErrBadSnapshot, s)
		}
		payload, err := cur.take(payloadLen)
		if err != nil {
			return "", fmt.Errorf("frame %d: %w", s, err)
		}
		if gotFrame, err := cur.u32(); err != nil {
			return "", fmt.Errorf("%w: frame %d missing checksum", ErrBadSnapshot, s)
		} else if crc32.ChecksumIEEE(payload) != gotFrame {
			return "", fmt.Errorf("%w: frame %d checksum mismatch", ErrBadSnapshot, s)
		}
		if err := cur.zeros(4); err != nil {
			return "", fmt.Errorf("frame %d: %w", s, err)
		}
		fcur := &snapCursor{b: payload, pin: pin}
		err = parseFrame(fcur)
		if err == nil {
			err = fcur.end()
		}
		if err != nil {
			return "", fmt.Errorf("frame %d: %w", s, err)
		}
	}
	if err := cur.end(); err != nil {
		return "", fmt.Errorf("after last frame: %w", err)
	}
	return string(kind), nil
}

// parseFrozenShardedSnapshot parses a TQSHRD02 image: one frozen
// payload per frame.
func parseFrozenShardedSnapshot(data []byte, pin any) (*FrozenShardedIndex, error) {
	var engines []*query.FrozenEngine
	var bounds geo.Rect
	kind, err := parseContainer(data, shardedFrozenMagic, pin, func(cur *snapCursor) error {
		f, set, err := parseFrozenPayload(cur)
		if err != nil {
			return err
		}
		if len(engines) == 0 {
			bounds = f.Bounds()
		}
		engines = append(engines, query.NewFrozenEngine(f, set))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sf, err := shard.FrozenFromEngines(engines, bounds, kind)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return &FrozenShardedIndex{s: sf}, nil
}

// parseLiveSnapshot parses a TQLIVE01 image: one epoch per frame.
func parseLiveSnapshot(data []byte, pin any, pol LivePolicy) (*LiveShardedIndex, error) {
	var eps []*query.Epoch
	kind, err := parseContainer(data, liveMagic, pin, func(cur *snapCursor) error {
		ep, err := parseLivePayload(cur)
		eps = append(eps, ep)
		return err
	})
	if err != nil {
		return nil, err
	}
	part, _ := shard.PartitionerOf(kind)
	l, err := shard.LiveFromEpochs(eps, part, pol.policy())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return &LiveShardedIndex{s: l}, nil
}

// OpenMappedFrozenSnapshot restores a FrozenIndex from a TQSNAP03 file
// by mapping it: the CRC is verified once, the columns alias the mapping
// (zero-copy on little-endian hosts), and the mapping is released when
// the last object restored from it is collected. Answers are
// byte-identical to ReadFrozenSnapshot of the same file.
func OpenMappedFrozenSnapshot(path string) (*FrozenIndex, error) {
	return openMapped(path, parseFrozenSnapshot)
}

// OpenMappedFrozenShardedSnapshot restores a FrozenShardedIndex from a
// TQSHRD02 file by mapping it; every shard's columns alias one shared
// mapping. Answers are byte-identical to ReadFrozenShardedSnapshot.
func OpenMappedFrozenShardedSnapshot(path string) (*FrozenShardedIndex, error) {
	return openMapped(path, parseFrozenShardedSnapshot)
}

// OpenMappedLiveSnapshot restores a live index from a TQLIVE01 file by
// mapping it: every shard's frozen base columns (and the delta
// trajectories' points) alias the mapping, while the restored index
// stays fully mutable — writes land in heap epochs, and background
// rebuilds fold mapped trajectories into heap bases, retiring the
// mapping once nothing references it. Answers are byte-identical to
// ReadLiveSnapshot of the same file.
func OpenMappedLiveSnapshot(path string, pol LivePolicy) (*LiveShardedIndex, error) {
	return openMapped(path, func(data []byte, pin any) (*LiveShardedIndex, error) {
		return parseLiveSnapshot(data, pin, pol)
	})
}
