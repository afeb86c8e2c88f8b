package trajcover

// Live snapshot persistence (TQLIVE01). A live index checkpoints
// without stopping writes: the writer captures each shard's current
// epoch — one atomic pointer load per shard — and serializes from those
// immutable values while inserts, deletes, and even background rebuilds
// keep running. Each shard's frame records the full epoch state:
//
//	TQLIVE01 — live container: CRC'd shared header (shard count,
//	           partitioner kind), then one length-prefixed,
//	           individually CRC'd frame per shard holding the frozen
//	           base payload (the TQSNAP03 column encoding), the
//	           tombstone IDs (sorted, so output is deterministic), and
//	           the delta trajectories.
//
// Restoring (the shared decoder in snapshot_mmap.go) reassembles the
// epochs verbatim — frozen columns bounds-checked, tombstones and delta
// revalidated against the base — so a restored index resumes exactly
// the logical corpus the capture saw, still mutable, with its pending
// churn intact for the next rebuild to fold.

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/query"
)

var liveMagic = [8]byte{'T', 'Q', 'L', 'I', 'V', 'E', '0', '1'}

// livePayloadSize returns the exact encoded size of one epoch's frame
// payload — used to length-prefix frames without buffering them.
func livePayloadSize(ep *query.Epoch) uint64 {
	size := frozenPayloadSize(ep.Base().Frozen())
	size += 8 + 4*uint64(ep.TombstoneCount())
	size += pad8(4 * uint64(ep.TombstoneCount())) // realign after the u32 tombstones
	size += 8
	for _, u := range ep.Delta() {
		size += frozenTrajectorySize(u)
	}
	return size
}

// writeLivePayload encodes one epoch: frozen base columns, sorted
// tombstone IDs (padded back to 8-alignment), then the delta
// trajectories in overlay order using the frozen record format
// (cached length/MBR), so a mapped open can alias delta points too.
func writeLivePayload(w io.Writer, ep *query.Epoch) error {
	if err := writeFrozenPayload(w, ep.Base().Frozen()); err != nil {
		return err
	}
	dead := make([]uint32, 0, ep.TombstoneCount())
	for id := range ep.Tombstones() {
		dead = append(dead, uint32(id))
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	cw := newColWriter(w)
	cw.u64(uint64(len(dead)))
	for _, id := range dead {
		cw.u32(id)
	}
	cw.pad(i32Pad(uint64(len(dead))))
	delta := ep.Delta()
	cw.u64(uint64(len(delta)))
	for _, u := range delta {
		cw.u32(uint32(u.ID))
		cw.u32(uint32(u.Len()))
		cw.u64(math.Float64bits(u.Length()))
		cw.rects([]geo.Rect{u.MBR()})
		cw.points(u.Points)
	}
	cw.flush()
	return cw.err
}

// writeLiveSnapshot serializes a captured epoch set as a TQLIVE01
// container.
func writeLiveSnapshot(w io.Writer, eps []*query.Epoch, kind string) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write(liveMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint64(len(eps))); err != nil {
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
	// Realign so every frame's payload starts 8-aligned in the file —
	// a mapped open aliases columns at file offsets. See
	// snapshot_frozen.go.
	if _, err := w.Write(make([]byte, pad8(uint64(len(kind))))); err != nil {
		return err
	}
	for _, ep := range eps {
		if err := binary.Write(w, binary.LittleEndian, livePayloadSize(ep)); err != nil {
			return err
		}
		fcrc := crc32.NewIEEE()
		if err := writeLivePayload(io.MultiWriter(w, fcrc), ep); err != nil {
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

// WriteSnapshot checkpoints the live index as a TQLIVE01 stream. The
// epoch set is captured atomically per shard up front, so the snapshot
// is a consistent cut of each shard while writes continue to land in
// successor epochs.
func (x *LiveShardedIndex) WriteSnapshot(w io.Writer) error {
	return writeLiveSnapshot(w, x.epochs(), x.s.PartitionerKind())
}

// WriteSnapshot checkpoints the live index as a single-shard TQLIVE01
// stream; restore with ReadLiveSnapshot.
func (x *LiveIndex) WriteSnapshot(w io.Writer) error {
	return writeLiveSnapshot(w, x.epochs(), x.s.PartitionerKind())
}

// ReadLiveSnapshot restores a live index written by WriteSnapshot —
// including any pending delta and tombstones, which the next rebuild
// folds as usual. pol tunes the restored index's compaction policy
// (policy is operational state, not data, so it is not recorded).
// A single-shard stream (a LiveIndex checkpoint) restores as a
// one-shard LiveShardedIndex, which serves identically. The stream is
// read to EOF and parsed like ReadFrozenSnapshot's; bytes after the
// last frame are an error.
func ReadLiveSnapshot(r io.Reader, pol LivePolicy) (*LiveShardedIndex, error) {
	data, err := readSnapshotBytes(r)
	if err != nil {
		return nil, err
	}
	return parseLiveSnapshot(data, nil, pol)
}
