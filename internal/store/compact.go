// Segment compaction: rewrite the log down to its live entries. The
// append-only design means segments accumulate dead bytes — torn tails
// left by crashes, records superseded by a later segment (a previous
// compaction that crashed between rename and delete), middle-segment
// garbage that replay skips — and without a rewrite they stay on disk
// forever. Compact copies exactly the records the index can reach into
// fresh segments, atomically swaps them in, and deletes the old files.
//
// Crash safety is layered on the same replay invariants Open already
// enforces:
//
//   - New segments are written as store-NNNNNN.seg.tmp and renamed into
//     place only when complete and synced — a crash mid-write leaves
//     only .tmp files, which Open deletes (they were never part of the
//     log).
//   - New segment ids are strictly greater than every old id, so a
//     crash after some renames but before the old files are deleted
//     leaves duplicate records whose newest copy wins during the
//     ascending-id replay. Nothing is lost; the leftovers are dead
//     bytes the next compaction reclaims.
//   - Old segments are deleted only after every rename has succeeded —
//     the point of no return is crossed with all data safely in place
//     twice.
package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"time"

	"repro/internal/eventlog"
	"repro/internal/report"
)

// GCPolicy selects entries a compaction pass discards instead of
// rewriting. The zero policy discards nothing. Untagged v1 records have
// no timestamps, so the age and idle rules exempt them until a
// compaction migrates them to v2 (stamping migration time as both
// created and last-hit) — a first GC pass over a legacy log can never
// mass-expire history it has no dates for. Their schema counts as 0
// (untagged), so SchemaBelow > 0 does reclaim unmigrated v1 records;
// compact once without a policy first if they should instead be stamped
// with the current schema and kept.
type GCPolicy struct {
	// MaxAge discards entries created longer than this ago.
	MaxAge time.Duration
	// MaxIdle discards entries whose last hit (or creation, if never
	// hit) is longer than this ago.
	MaxIdle time.Duration
	// SchemaBelow discards entries whose record schema tag is below this
	// value — cells from before a report schema bump that no sweep will
	// ever key again.
	SchemaBelow int
}

// Zero reports whether the policy discards nothing.
func (p GCPolicy) Zero() bool {
	return p.MaxAge <= 0 && p.MaxIdle <= 0 && p.SchemaBelow <= 0
}

// expires reports whether an entry with metadata m is past the policy
// at unix time now.
func (p GCPolicy) expires(m recMeta, now int64) bool {
	if p.SchemaBelow > 0 && m.schema < p.SchemaBelow {
		return true
	}
	if m.v == 0 || m.created == 0 {
		return false // untagged v1: no dates to judge by
	}
	if p.MaxAge > 0 && now-m.created > int64(p.MaxAge/time.Second) {
		return true
	}
	last := m.hit
	if last < m.created {
		last = m.created
	}
	return p.MaxIdle > 0 && now-last > int64(p.MaxIdle/time.Second)
}

// Compact rewrites the store down to its live entries under the
// configured GC policy (Config.GC; zero by default) and reports what
// was reclaimed. It holds the store lock for the duration, so Get/Put
// from other goroutines block until the pass finishes — acceptable
// because a pass costs one sequential read plus one sequential write of
// the live data. Cell keys and cell payload bytes are untouched: a
// store that replayed N cells before compaction replays the same N
// after (minus what the policy expired), though the pass migrates any
// v1 envelopes it rewrites to v2.
func (s *Store) Compact() (CompactResult, error) {
	return s.CompactPolicy(s.gc)
}

// CompactPolicy is Compact under an explicit GC policy, overriding the
// configured one for this pass.
func (s *Store) CompactPolicy(p GCPolicy) (CompactResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events.Emit(eventlog.Event{
		Type:   eventlog.TypeStoreCompactStart,
		Detail: fmt.Sprintf("reclaimable %d bytes", s.totalBytes-s.liveBytes),
	})
	start := time.Now()
	res, err := s.compactLocked(p)
	dur := float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		s.events.Emit(eventlog.Event{
			Type: eventlog.TypeStoreCompactFail, DurMS: dur, Detail: err.Error(),
		})
		return res, err
	}
	s.events.Emit(eventlog.Event{
		Type: eventlog.TypeStoreCompactDone, DurMS: dur,
		Detail: fmt.Sprintf("reclaimed %d bytes, %d live entries, %d expired, %d->%d segments",
			res.ReclaimedBytes, res.LiveEntries, res.ExpiredEntries, res.SegmentsBefore, res.SegmentsAfter),
	})
	return res, nil
}

func (s *Store) compactLocked(p GCPolicy) (res CompactResult, err error) {
	if s.closed {
		return res, fmt.Errorf("store: closed")
	}
	if s.dir == "" {
		return res, fmt.Errorf("store: memory-only store has no segments to compact")
	}
	if s.diskDead {
		return res, fmt.Errorf("store: disk layer disabled after an append failure")
	}

	oldIDs := make([]int, 0, len(s.readers))
	for id := range s.readers {
		oldIDs = append(oldIDs, id)
	}
	sort.Ints(oldIDs)
	res.SegmentsBefore = len(oldIDs)
	res.BytesBefore = s.totalBytes

	// Partition the index under the GC policy: expired entries are
	// simply not rewritten (and leave the LRU front at the point of no
	// return — until then the store is untouched and an aborted pass
	// still serves them).
	now := s.wall.Now().Unix()
	type liveRef struct {
		key string
		ref diskRef
	}
	var expired []string
	refs := make([]liveRef, 0, len(s.index))
	for key, ref := range s.index {
		if p.expires(ref.meta, now) {
			expired = append(expired, key)
			res.ExpiredEntries++
			res.ExpiredBytes += recordHeaderLen + int64(ref.n)
			continue
		}
		refs = append(refs, liveRef{key, ref})
	}
	res.LiveEntries = len(refs)

	// Live refs in (segment, offset) order: the copy below reads each
	// old segment sequentially.
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].ref.seg != refs[j].ref.seg {
			return refs[i].ref.seg < refs[j].ref.seg
		}
		return refs[i].ref.off < refs[j].ref.off
	})

	// Phase 1: write the live records into fresh .tmp segments with ids
	// past every existing one. Abortable — on any error the tmp files
	// are removed and the store is untouched.
	var (
		newIDs   []int
		newIndex = make(map[string]diskRef, len(refs))
		tmpFile  *os.File
		tmpW     *bufio.Writer
		tmpSize  int64
		newTotal int64
	)
	cleanupTmp := func() {
		if tmpFile != nil {
			_ = tmpFile.Close()
			tmpFile = nil
		}
		for _, id := range newIDs {
			_ = os.Remove(s.segPath(id) + ".tmp")
		}
	}
	nextID := s.actID
	openTmp := func() error {
		nextID++
		f, err := os.OpenFile(s.segPath(nextID)+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		newIDs = append(newIDs, nextID)
		tmpFile, tmpW, tmpSize = f, bufio.NewWriterSize(f, 1<<20), 0
		return nil
	}
	closeTmp := func() error {
		if tmpFile == nil {
			return nil
		}
		if err := tmpW.Flush(); err != nil {
			return err
		}
		// Sync before rename: the rename must never expose a segment
		// whose bytes could still be lost to a power cut.
		if err := tmpFile.Sync(); err != nil {
			return err
		}
		err := tmpFile.Close()
		tmpFile = nil
		newTotal += tmpSize
		return err
	}
	buf := make([]byte, 0, 4096)
	frame := make([]byte, 0, 4096)
	for _, lr := range refs {
		// Re-read the record payload and rewrite it as a v2 envelope.
		// The cell bytes pass through as a raw message — bit-identical
		// to what the original envelope (v1 or v2) held — while the
		// metadata is refreshed: a v1 record gets the envelope version,
		// the current report schema, and migration time as created/hit;
		// a v2 record keeps its dates plus any in-memory last-hit
		// refresh Get recorded since the last pass.
		r := s.readers[lr.ref.seg]
		if r == nil {
			cleanupTmp()
			return res, fmt.Errorf("store: compact: no reader for segment %d", lr.ref.seg)
		}
		if cap(buf) < lr.ref.n {
			buf = make([]byte, lr.ref.n)
		}
		buf = buf[:lr.ref.n]
		if _, err := r.ReadAt(buf, lr.ref.off); err != nil {
			cleanupTmp()
			return res, fmt.Errorf("store: compact: reading %s: %w", lr.key, err)
		}
		var rec persistRecord
		if err := json.Unmarshal(buf, &rec); err != nil {
			cleanupTmp()
			return res, fmt.Errorf("store: compact: decoding %s: %w", lr.key, err)
		}
		meta := lr.ref.meta
		if meta.v == 0 {
			res.MigratedRecords++
			meta.schema = report.SchemaVersion
			meta.created, meta.hit = now, now
		}
		meta.v = recordVersion
		if meta.created == 0 {
			meta.created = now
		}
		if meta.hit < meta.created {
			meta.hit = meta.created
		}
		payload, err := json.Marshal(persistRecord{
			Key: lr.key, V: meta.v, Schema: meta.schema,
			Created: meta.created, Hit: meta.hit, Cell: rec.Cell,
		})
		if err != nil {
			cleanupTmp()
			return res, fmt.Errorf("store: compact: encoding %s: %w", lr.key, err)
		}
		n := recordHeaderLen + len(payload)
		if cap(frame) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		copy(frame[recordHeaderLen:], payload)
		if tmpFile == nil || tmpSize >= s.segMax {
			if err := closeTmp(); err != nil {
				cleanupTmp()
				return res, fmt.Errorf("store: compact: %w", err)
			}
			if err := openTmp(); err != nil {
				cleanupTmp()
				return res, fmt.Errorf("store: compact: %w", err)
			}
		}
		if _, err := tmpW.Write(frame); err != nil {
			cleanupTmp()
			return res, fmt.Errorf("store: compact: %w", err)
		}
		newIndex[lr.key] = diskRef{seg: newIDs[len(newIDs)-1], off: tmpSize + recordHeaderLen, n: len(payload), meta: meta}
		tmpSize += int64(n)
	}
	if err := closeTmp(); err != nil {
		cleanupTmp()
		return res, fmt.Errorf("store: compact: %w", err)
	}

	// Phase 2: atomically rename every tmp into the log. A failure here
	// still aborts cleanly — already-renamed new segments hold only
	// duplicates of records the old segments (all untouched) still
	// serve, so removing them plus the remaining tmps restores the
	// previous state exactly.
	for i, id := range newIDs {
		if err := os.Rename(s.segPath(id)+".tmp", s.segPath(id)); err != nil {
			for _, done := range newIDs[:i] {
				_ = os.Remove(s.segPath(done))
			}
			cleanupTmp()
			return res, fmt.Errorf("store: compact: %w", err)
		}
	}

	// Point of no return: every live record exists in the new segments.
	// Swap the in-memory state, then delete the old files; a crash
	// between deletes only leaves dead duplicates for the next pass.
	if s.active != nil {
		_ = s.active.Close()
		s.active = nil
	}
	for id, f := range s.readers {
		_ = f.Close()
		delete(s.readers, id)
	}
	for _, id := range oldIDs {
		_ = os.Remove(s.segPath(id))
	}
	s.index = newIndex
	// Expired entries must leave the memory layer too, or the LRU would
	// keep serving what the policy just reclaimed.
	for _, key := range expired {
		s.front.Remove(key)
	}
	for _, id := range newIDs {
		f, err := os.Open(s.segPath(id))
		if err != nil {
			// The segment was just written and renamed; failing to reopen
			// it is a dying disk. Degrade to memory-only like a failed
			// append would.
			s.diskDead = true
			return res, fmt.Errorf("store: compact: reopening segment %d: %w", id, err)
		}
		s.readers[id] = f
	}
	// The youngest new segment becomes the active one (or a fresh id
	// when compaction wrote nothing); openActive reopens the append
	// handle and a full segment simply rotates on the next Put.
	if len(newIDs) > 0 {
		s.actID = newIDs[len(newIDs)-1]
	} else {
		s.actID = nextID + 1
	}
	if err := s.openActive(); err != nil {
		s.diskDead = true
		return res, err
	}
	s.totalBytes, s.liveBytes = newTotal, newTotal
	res.SegmentsAfter = len(s.readers)
	res.BytesAfter = newTotal
	res.ReclaimedBytes = res.BytesBefore - res.BytesAfter
	// A compaction is a natural persistence point for the lifetime
	// counters too.
	s.kickStats()
	return res, nil
}
