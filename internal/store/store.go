// Package store is the content-addressed result store behind the
// memoizing service layer: every suite cell is deterministic in its
// canonical identity (the suite layer hashes the cell's full execution
// configuration into a key), so a result computed once — by `ptest
// run`, `ptest suite`, or a ptestd job — never needs recomputing. The
// store answers Get/Put on that key with an in-memory LRU front and an
// append-only on-disk segment log behind it: evicted entries stay
// readable from disk, a reopened store serves every record ever
// written, and a torn tail record (crash mid-append) is truncated on
// open instead of poisoning the log. A Put is appended without an
// fsync; Flush makes a run's puts durable together, PutBatch and Close
// sync before they return, and Get syncs a record before serving it.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/eventlog"
	"repro/internal/jsonenc"
	"repro/internal/report"
)

// Config sizes the store. The zero value of every field takes a
// sensible default; Dir == "" means memory-only (evicted entries are
// simply lost — fine for tests and short-lived CLI runs).
type Config struct {
	// Dir is the segment directory. Created if missing. Empty disables
	// the disk layer.
	Dir string
	// MemEntries caps the LRU front (default 4096 cells).
	MemEntries int
	// SegMaxBytes rotates the active segment past this size (default
	// 8 MiB). Rotation bounds the cost of the open-time scan per file,
	// not correctness — every segment is replayed into the index.
	SegMaxBytes int64
	// AutoCompactMinBytes arms opt-in background compaction: after an
	// append, when the reclaimable byte count (total segment bytes minus
	// live record bytes) reaches this AND exceeds AutoCompactRatio of
	// the total, a background goroutine rewrites the log down to its
	// live entries. 0 (the default) disables auto-compaction; explicit
	// `ptest store compact` always works. Note the pass holds the store
	// lock for one sequential read + synced write of the live data, so
	// Get/Put (and a hub's jobs) stall for its duration — size the
	// threshold so a pass rewrites megabytes, not gigabytes. A pass that
	// fails disarms auto-compaction for the rest of the session instead
	// of re-paying the aborted rewrite on every append.
	AutoCompactMinBytes int64
	// AutoCompactRatio is the reclaimable/total fraction that must also
	// be exceeded before auto-compaction fires (default 0.5 when
	// AutoCompactMinBytes is set). It keeps a huge-but-mostly-live store
	// from rewriting gigabytes to reclaim a fixed few megabytes.
	AutoCompactRatio float64
	// GC is the retention policy every compaction pass (manual Compact
	// or auto-compaction) applies. The zero policy discards nothing —
	// compaction only rewrites dead bytes away, the pre-GC behavior.
	GC GCPolicy
	// Clock stamps record created/last-hit times and drives the GC
	// policy's notion of now. Nil uses the system wall clock; tests pin
	// retention behavior with a fake.
	Clock clock.Wall
}

// Stats is a point-in-time counter snapshot of the current session.
type Stats struct {
	// Hits/Misses count Get outcomes (a disk hit is still a hit);
	// Puts counts accepted inserts (duplicate keys are not re-stored).
	Hits, Misses, Puts uint64
	// Syncs counts fsync calls on the segment log: one per Flush after
	// any number of Puts, one per whole PutBatch, one per retired
	// segment — the group-commit collapse, observable.
	Syncs uint64
	// MemEntries/DiskEntries are current sizes of the two layers.
	MemEntries, DiskEntries int
}

// Counters are cumulative lifetime Get/Put counters. For a disk-backed
// store they persist across processes in a stats.json sidecar: Open
// loads them, Close writes them back with the session's counts folded
// in. The sidecar is advisory (telemetry for `ptest store stat` and
// the compaction heuristics the ROADMAP plans), never consulted for
// correctness — a missing or stale one costs nothing but history.
type Counters struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
}

// statsSidecar is the stats.json filename inside a store directory.
const statsSidecar = "stats.json"

// statsFlushEvery bounds how many Get/Put outcomes can sit unflushed in
// memory: every so many operations the flusher rewrites the lifetime
// counters to the sidecar, so a crashed or SIGKILLed daemon loses at
// most this much history instead of the whole session (the sidecar
// used to be written on Close only).
const statsFlushEvery = 256

// Store is safe for concurrent use by the server worker pool and any
// number of goroutines within one process. Cross-process sharing of
// one Dir is not supported — the daemon owns its directory, and Open
// enforces that with an exclusive flock so a second process fails
// loudly instead of interleaving appends.
type Store struct {
	hits, misses, puts atomic.Uint64
	syncs              atomic.Uint64
	ops                atomic.Uint64 // Get/Put outcomes, toward the periodic sidecar flush
	base               Counters      // lifetime counters loaded from the sidecar

	// A disk store rewrites its sidecar on one flusher goroutine, so no
	// Get, Put or PutBatch waits on a file: noteOps kicks it, Close
	// stops it, waits for statsExited and then writes the final counters
	// itself. The channels are nil for a memory store, which has no
	// sidecar. writeSidecar is os.WriteFile, or a test's hook.
	statsKick    chan struct{} // buffered: a kick while one is pending changes nothing
	statsStop    chan struct{}
	statsExited  chan struct{}
	writeSidecar func(name string, data []byte, perm os.FileMode) error

	mu      sync.Mutex
	front   *lruCache
	dir     string
	segMax  int64
	wall    clock.Wall
	gc      GCPolicy
	index   map[string]diskRef // key → record location
	readers map[int]*os.File   // segment id → read handle
	active  *os.File           // append handle of the newest segment
	actID   int
	actSize int64
	// synced is how many bytes of the active segment an fsync covers.
	// Every other segment is synced whole: rotation syncs the segment it
	// retires, and compaction syncs what it writes.
	synced  int64
	scratch []byte   // grown frame buffer reused across appends
	lock    *os.File // flock holder: one process per Dir
	// totalBytes/liveBytes track the segment-directory accounting the
	// compaction decision needs: totalBytes is the summed segment size,
	// liveBytes the record bytes the index can still reach. The gap is
	// what a compaction pass would reclaim (torn tails, superseded
	// records left by a crashed compaction).
	totalBytes, liveBytes int64
	autoMin               int64   // Config.AutoCompactMinBytes
	autoRatio             float64 // Config.AutoCompactRatio
	compacting            bool    // one background compaction at a time
	diskDead              bool    // disk layer failed; serve memory-only
	closed                bool
	events                *eventlog.Recorder // nil emits nothing
}

type diskRef struct {
	seg  int
	off  int64 // offset of the payload (past the header)
	n    int   // payload length
	meta recMeta
}

// recMeta is a record's envelope metadata: all zero for a v1 record,
// the stamped values for v2. Replay carries it from disk into the
// index; Get refreshes hit in memory; compaction persists the refreshed
// values back and the GC policy decides by them.
type recMeta struct {
	v       int   // envelope version: 0 (v1, untagged) or recordVersion
	schema  int   // report schema the cell was produced under (0: untagged)
	created int64 // unix seconds the record was first stored
	hit     int64 // unix seconds of the last Get hit (created if never hit)
}

// record is the v1 persisted form: the key travels with the cell so
// the index can be rebuilt from the log alone. Kept as the legacy shape
// mixed-version tests plant; every new write is a v2 persistRecord.
type record struct {
	Key  string      `json:"key"`
	Cell report.Cell `json:"cell"`
}

// recordVersion is the envelope version new records are written with.
const recordVersion = 2

// persistRecord is the on-disk payload shape across both envelope
// versions: a v1 record is {"key","cell"}, a v2 record adds the
// envelope version, the report schema tag, and created/last-hit unix
// timestamps. One decode handles both — absent fields stay zero. Cell
// is a json.RawMessage so reads, replay and compaction carry the cell
// payload bytes verbatim: migrating a v1 record to v2 rewraps exactly
// the bytes the v1 envelope held, which is what keeps CellKey/Digest
// and canonical-report goldens stable across migrations.
type persistRecord struct {
	Key     string          `json:"key"`
	V       int             `json:"v,omitempty"`
	Schema  int             `json:"schema,omitempty"`
	Created int64           `json:"created,omitempty"`
	Hit     int64           `json:"hit,omitempty"`
	Cell    json.RawMessage `json:"cell"`
}

// CellEntry is one key→cell pair of a batched put.
type CellEntry struct {
	Key  string
	Cell report.Cell
}

const recordHeaderLen = 8 // u32 LE payload length + u32 LE CRC32(payload)

// MaxRecordBytes bounds a single record independently of the segment
// rotation size: replay uses it to reject corrupt length headers
// without multi-GiB allocations, and Put refuses to write anything
// bigger — so reopening with a different SegMaxBytes can never
// misclassify valid records as corrupt. Exported so the hub's
// lease:batch endpoint caps request bodies at exactly what the store
// behind it would accept: a smaller wire cap would let a worker compute
// a large cell whose completion the hub could never read.
const MaxRecordBytes = 64 << 20

// Open builds the store, replaying any existing segments in Dir into
// the index. A torn final record (crash mid-append) is truncated away.
func Open(cfg Config) (*Store, error) {
	if cfg.MemEntries <= 0 {
		cfg.MemEntries = 4096
	}
	if cfg.SegMaxBytes <= 0 {
		cfg.SegMaxBytes = 8 << 20
	}
	if cfg.AutoCompactMinBytes > 0 && cfg.AutoCompactRatio <= 0 {
		cfg.AutoCompactRatio = 0.5
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	s := &Store{
		writeSidecar: os.WriteFile,
		front:        newLRU(cfg.MemEntries),
		dir:          cfg.Dir,
		segMax:       cfg.SegMaxBytes,
		wall:         cfg.Clock,
		gc:           cfg.GC,
		autoMin:      cfg.AutoCompactMinBytes,
		autoRatio:    cfg.AutoCompactRatio,
		index:        map[string]diskRef{},
		readers:      map[int]*os.File{},
	}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(cfg.Dir, "store.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := lockFile(lock); err != nil {
		_ = lock.Close()
		return nil, fmt.Errorf("store: locking %s: %w (is another run/suite/ptestd using this store directory?)", cfg.Dir, err)
	}
	s.lock = lock
	// Load the counter history before anything that can fail below:
	// closeLocked persists s.base back, so an error path through it must
	// already hold the loaded values or it would zero the sidecar.
	// Best-effort: a corrupt or missing sidecar only loses history.
	if data, err := os.ReadFile(filepath.Join(cfg.Dir, statsSidecar)); err == nil {
		_ = json.Unmarshal(data, &s.base)
	}
	// Torn-compaction recovery, step 1: a crash mid-compaction leaves
	// behind *.seg.tmp files that were never atomically renamed into the
	// log. They are not segments — delete them. (A crash after some
	// renames instead leaves duplicate records in old and new segments;
	// the ascending-id replay below resolves those, newest segment wins.)
	if tmps, err := filepath.Glob(filepath.Join(cfg.Dir, "store-*.seg.tmp")); err == nil {
		for _, tmp := range tmps {
			_ = os.Remove(tmp)
		}
	}
	ids, err := segmentIDs(cfg.Dir)
	if err != nil {
		s.closeLocked()
		return nil, err
	}
	for _, id := range ids {
		if err := s.replaySegment(id, id == ids[len(ids)-1]); err != nil {
			s.closeLocked()
			return nil, err
		}
	}
	if len(ids) > 0 {
		s.actID = ids[len(ids)-1]
	} else {
		s.actID = 1
	}
	if err := s.openActive(); err != nil {
		s.closeLocked()
		return nil, err
	}
	// A process that ended before its Flush can leave records only the
	// page cache holds. Sync them before this one serves any.
	s.synced = 0
	if err := s.syncLocked(); err != nil {
		s.closeLocked()
		return nil, err
	}
	// Sum segment sizes after replay (replay may have truncated a torn
	// tail), completing the live-vs-total accounting replaySegment began.
	for id := range s.readers {
		if st, err := os.Stat(s.segPath(id)); err == nil {
			s.totalBytes += st.Size()
		}
	}
	s.statsKick = make(chan struct{}, 1)
	s.statsStop = make(chan struct{})
	s.statsExited = make(chan struct{})
	go s.flushStatsLoop()
	return s, nil
}

// segmentIDs lists the numeric ids of every segment file in dir,
// ascending.
func segmentIDs(dir string) ([]int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "store-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var ids []int
	for _, name := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(name), "store-%d.seg", &id); err == nil && id > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// segFile renders the filename of segment id inside dir — the single
// definition of the segment naming scheme (segmentIDs' glob and Sscanf
// parse the same shape, and the read-only Stat scan shares it).
func segFile(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("store-%06d.seg", id))
}

func (s *Store) segPath(id int) string { return segFile(s.dir, id) }

// replaySegment scans one segment into the index. Persistent
// corruption (torn tail, bad CRC, bad length) stops the scan — and,
// when the segment is the active (last) one, truncates the file to the
// last good record so the next append lands on a clean boundary. A
// transient read error instead fails Open: truncating on it would
// permanently destroy records a retry could have read.
func (s *Store) replaySegment(id int, isLast bool) error {
	f, err := os.Open(s.segPath(id))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.readers[id] = f
	off, clean, err := walkRecords(f, func(key string, payloadOff int64, n int, meta recMeta) {
		// A key replayed from an earlier segment is superseded by this
		// record: its old bytes become reclaimable.
		if old, dup := s.index[key]; dup {
			s.liveBytes -= recordHeaderLen + int64(old.n)
		}
		s.liveBytes += recordHeaderLen + int64(n)
		s.index[key] = diskRef{seg: id, off: payloadOff, n: n, meta: meta}
	})
	if err != nil {
		return fmt.Errorf("store: reading segment %d: %w", id, err)
	}
	// Corruption: drop the tail of the active segment; a corrupt middle
	// segment just loses its tail records.
	if !clean && isLast {
		if err := os.Truncate(s.segPath(id), off); err != nil {
			return fmt.Errorf("store: truncating torn segment: %w", err)
		}
	}
	return nil
}

// walkRecords scans one segment's records from the start of f, calling
// visit for every intact record with its key, payload location and
// envelope metadata (zero recMeta for v1 records). It is the single
// definition of the on-disk framing, shared by Open's replay and the
// read-only Stat scan. The returned offset is just past the last intact
// record; clean is false when the scan stopped on persistent corruption
// (torn or CRC-failed tail) instead of a record boundary at EOF. A
// transient read error comes back as err — callers must not truncate
// on it.
func walkRecords(f *os.File, visit func(key string, payloadOff int64, payloadLen int, meta recMeta)) (off int64, clean bool, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	size := st.Size()
	hdr := make([]byte, recordHeaderLen)
	for {
		if n, err := f.ReadAt(hdr, off); err != nil {
			if err == io.EOF && n == 0 {
				return off, true, nil // clean end on a record boundary
			}
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				return off, false, err
			}
			return off, false, nil // torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxRecordBytes {
			return off, false, nil // corrupt length field — don't allocate gigabytes
		}
		if int64(n) > size-off-recordHeaderLen {
			// Torn payload: the segment ends inside it. Checked before
			// allocating, so a corrupt length costs nothing either.
			return off, false, nil
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+recordHeaderLen); err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				return off, false, err
			}
			return off, false, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != want {
			return off, false, nil // corrupt payload
		}
		var rec persistRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Key == "" {
			return off, false, nil
		}
		visit(rec.Key, off+recordHeaderLen, int(n), recMeta{
			v: rec.V, schema: rec.Schema, created: rec.Created, hit: rec.Hit,
		})
		off += recordHeaderLen + int64(n)
	}
}

// openActive opens (or creates) the append handle for segment actID
// and records its current size, all of it taken as synced.
func (s *Store) openActive() error {
	f, err := os.OpenFile(s.segPath(s.actID), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.active, s.actSize, s.synced = f, st.Size(), st.Size()
	if s.readers[s.actID] == nil {
		r, err := os.Open(s.segPath(s.actID))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.readers[s.actID] = r
	}
	return nil
}

// Get returns the stored cell for key. A miss in the LRU front falls
// through to the segment index; disk hits are promoted back into
// memory. Every hit refreshes the entry's last-hit time in the index —
// in memory only; the refreshed value persists at the next compaction,
// which is exactly when the MaxIdle GC policy consults it. A hit on a
// record no fsync covers yet syncs the active segment first, so no
// caller builds on a cell a power loss could still take away.
func (s *Store) Get(key string) (report.Cell, bool) {
	s.mu.Lock()
	cell, ok := s.getLocked(key)
	s.mu.Unlock()
	s.noteOps(1)
	return cell, ok
}

func (s *Store) getLocked(key string) (report.Cell, bool) {
	if cell, ok := s.front.Get(key); ok {
		s.touchLocked(key)
		s.hits.Add(1)
		s.events.Emit(eventlog.Event{Type: eventlog.TypeStoreHit, Key: key, Detail: "mem"})
		return cell, true
	}
	if ref, ok := s.index[key]; ok {
		cell, err := s.readLocked(ref)
		if err == nil {
			s.front.Add(key, cell, 1)
			s.touchLocked(key)
			s.hits.Add(1)
			s.events.Emit(eventlog.Event{Type: eventlog.TypeStoreHit, Key: key, Detail: "disk"})
			return cell, true
		}
	}
	s.misses.Add(1)
	s.events.Emit(eventlog.Event{Type: eventlog.TypeStoreMiss, Key: key})
	return report.Cell{}, false
}

// touchLocked refreshes the indexed entry's last-hit time and syncs
// its record if no fsync covers it yet. A failed sync still serves the
// cell, as a Put whose append failed still serves it from memory; the
// next Flush, PutBatch or Close retries the sync and reports it.
func (s *Store) touchLocked(key string) {
	if ref, ok := s.index[key]; ok {
		ref.meta.hit = s.wall.Now().Unix()
		s.index[key] = ref
		if ref.seg == s.actID && ref.off+int64(ref.n) > s.synced {
			_ = s.syncLocked()
		}
	}
}

func (s *Store) readLocked(ref diskRef) (report.Cell, error) {
	f := s.readers[ref.seg]
	if f == nil {
		return report.Cell{}, fmt.Errorf("store: no reader for segment %d", ref.seg)
	}
	payload := make([]byte, ref.n)
	if _, err := f.ReadAt(payload, ref.off); err != nil {
		return report.Cell{}, fmt.Errorf("store: %w", err)
	}
	var rec persistRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return report.Cell{}, fmt.Errorf("store: %w", err)
	}
	var cell report.Cell
	if err := json.Unmarshal(rec.Cell, &cell); err != nil {
		return report.Cell{}, fmt.Errorf("store: %w", err)
	}
	return cell, nil
}

// Put stores the cell under key as a batch of one, appended without an
// fsync: Flush, which the suite runner calls at the end of every run,
// makes all of a run's puts durable under one. Re-putting a known key
// is a no-op — the content address guarantees the value is identical.
// The memory layer is updated even when the disk append fails, so a
// full disk degrades to memory-only caching with an error the caller
// can log.
func (s *Store) Put(key string, cell report.Cell) error {
	s.mu.Lock()
	puts, err := s.putBatchLocked([]CellEntry{{Key: key, Cell: cell}})
	s.mu.Unlock()
	s.noteOps(puts)
	return err
}

// PutBatch stores every entry and returns once they are durable, with
// one group-commit fsync for the whole batch. Per entry: a key the
// memory layer holds is skipped, the memory layer is (re)inserted even
// when the key is indexed on disk but its record became unreadable (the
// LRU then serves the recomputed cell instead of forcing a re-execution
// on every future run), and only keys not yet on disk are appended. The
// fsync also covers records earlier Puts left unsynced, a skipped key's
// among them. A non-nil error means some entries may not persist, never
// that a cell is wrong.
func (s *Store) PutBatch(entries []CellEntry) error {
	s.mu.Lock()
	puts, err := s.putBatchLocked(entries)
	if !s.closed {
		err = errors.Join(err, s.syncLocked())
	}
	s.mu.Unlock()
	s.noteOps(puts)
	return err
}

// Flush makes every record appended so far durable, with one fsync of
// the active segment when it holds records no fsync covers yet, and
// with none otherwise. Flush after Close returns nil: Close has synced.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncLocked()
}

// syncLocked fsyncs the active segment when it holds records no fsync
// covers yet.
func (s *Store) syncLocked() error {
	if s.active == nil || s.synced >= s.actSize {
		return nil
	}
	if s.diskDead {
		return fmt.Errorf("store: disk layer disabled after an append failure")
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	s.syncs.Add(1)
	s.synced = s.actSize
	return nil
}

// putBatchLocked stores entries under mu without syncing them; it also
// returns how many entries it accepted.
func (s *Store) putBatchLocked(entries []CellEntry) (uint64, error) {
	if s.closed {
		return 0, fmt.Errorf("store: closed")
	}
	now := s.wall.Now().Unix()
	var (
		one       [1]pendingRecord // a lone Put's record stays off the heap
		pend      = one[:0]
		encodeErr error
		puts      uint64
	)
	for _, e := range entries {
		if s.front.Contains(e.Key) {
			continue
		}
		_, onDisk := s.index[e.Key]
		s.puts.Add(1)
		puts++
		s.events.Emit(eventlog.Event{Type: eventlog.TypeStorePut, Key: e.Key, Detail: "batch"})
		s.front.Add(e.Key, e.Cell, 1)
		if s.dir == "" || onDisk {
			continue
		}
		p, err := encodePending(e.Key, e.Cell, now)
		if err != nil {
			encodeErr = errors.Join(encodeErr, err)
			continue
		}
		pend = append(pend, p)
	}
	if len(pend) == 0 {
		return puts, encodeErr
	}
	return puts, errors.Join(encodeErr, s.appendRecordsLocked(pend))
}

// pendingRecord is one encoded-but-unwritten record of an append batch.
type pendingRecord struct {
	key     string
	payload []byte
	meta    recMeta
}

// encodePending encodes one cell into a framed-ready v2 payload: the
// bytes json.Marshal writes for its persistRecord, without reflection.
func encodePending(key string, cell report.Cell, now int64) (pendingRecord, error) {
	meta := recMeta{v: recordVersion, schema: report.SchemaVersion, created: now, hit: now}
	w := jsonenc.Writer{B: make([]byte, 0, 640)}
	w.BeginObject()
	w.String("key", key)
	// v and schema are nonzero constants, so their omitempty never
	// applies; a clock at the epoch leaves out created and hit.
	w.Int("v", int64(meta.v))
	w.Int("schema", int64(meta.schema))
	if now != 0 {
		w.Int("created", now)
		w.Int("hit", now)
	}
	w.Field("cell")
	var err error
	if w.B, err = report.AppendCell(w.B, &cell); err != nil {
		return pendingRecord{}, fmt.Errorf("store: encoding %s: %w", key, err)
	}
	w.EndObject()
	payload := w.B
	if len(payload)+recordHeaderLen > MaxRecordBytes {
		// Never write what replay would refuse to read back.
		return pendingRecord{}, fmt.Errorf("store: record for %s is %d bytes (max %d); kept memory-only", key, len(payload), MaxRecordBytes)
	}
	return pendingRecord{key: key, payload: payload, meta: meta}, nil
}

// appendRecordsLocked frames recs into the reused scratch buffer,
// appends them with one write and indexes them; the fsync is the
// caller's (syncLocked). Preallocating the whole frame run and reusing
// the grown buffer keeps the hot path free of per-append allocations.
func (s *Store) appendRecordsLocked(recs []pendingRecord) error {
	if s.diskDead {
		return fmt.Errorf("store: disk layer disabled after an append failure")
	}
	if s.actSize >= s.segMax {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	total := 0
	for _, r := range recs {
		total += recordHeaderLen + len(r.payload)
	}
	if cap(s.scratch) < total {
		s.scratch = make([]byte, 0, total)
	}
	buf := s.scratch[:total]
	at := 0
	for _, r := range recs {
		binary.LittleEndian.PutUint32(buf[at:at+4], uint32(len(r.payload)))
		binary.LittleEndian.PutUint32(buf[at+4:at+8], crc32.ChecksumIEEE(r.payload))
		copy(buf[at+recordHeaderLen:], r.payload)
		at += recordHeaderLen + len(r.payload)
	}
	start := s.actSize
	n, werr := s.active.Write(buf)
	// Track the real end of file even on a short write (O_APPEND, single
	// writer), so later records are indexed at their true offsets.
	s.actSize += int64(n)
	s.totalBytes += int64(n)
	if werr != nil {
		// The segment tail may now be torn. Move the append point to a
		// fresh segment so records written after the failure stay
		// replayable — recovery truncates only the torn tail of the old
		// one. If even rotation fails the disk layer is dead; degrade to
		// memory-only instead of corrupting the log.
		if rerr := s.rotateLocked(); rerr != nil {
			s.diskDead = true
		}
		return fmt.Errorf("store: appending %s: %w", recs[0].key, werr)
	}
	off := start
	for _, r := range recs {
		s.index[r.key] = diskRef{seg: s.actID, off: off + recordHeaderLen, n: len(r.payload), meta: r.meta}
		s.liveBytes += recordHeaderLen + int64(len(r.payload))
		off += recordHeaderLen + int64(len(r.payload))
	}
	s.maybeAutoCompactLocked()
	return nil
}

// maybeAutoCompactLocked fires the opt-in background compaction when
// the reclaimable byte count clears both thresholds. One pass at a
// time; the goroutine serializes on s.mu with every other operation, so
// a racing Close simply wins the lock first and the pass no-ops.
func (s *Store) maybeAutoCompactLocked() {
	if s.autoMin <= 0 || s.compacting || s.diskDead {
		return
	}
	reclaimable := s.totalBytes - s.liveBytes
	if reclaimable < s.autoMin || float64(reclaimable) < s.autoRatio*float64(s.totalBytes) {
		return
	}
	s.compacting = true
	go func() {
		_, err := s.Compact()
		s.mu.Lock()
		s.compacting = false
		if err != nil && !s.closed {
			// A failed pass is non-fatal — the store keeps serving from
			// the uncompacted log — but whatever broke it (unreadable
			// record, full disk) will still be broken on the next append,
			// and reclaimable bytes stay above the thresholds. Without
			// this disarm every subsequent Put would pay a full aborted
			// rewrite. Auto-compaction stays off for the session; manual
			// `ptest store compact` still works and a reopen re-arms.
			s.autoMin = 0
		}
		s.mu.Unlock()
	}()
}

// rotateLocked retires the active segment, synced, and opens the next.
func (s *Store) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return fmt.Errorf("store: rotating: %w", err)
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: rotating: %w", err)
	}
	s.actID++
	return s.openActive()
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		Syncs:       s.syncs.Load(),
		MemEntries:  s.front.Len(),
		DiskEntries: len(s.index),
	}
}

// Reclaimable reports the byte count a Compact pass would free: total
// segment bytes minus the record bytes the index can still reach.
func (s *Store) Reclaimable() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalBytes - s.liveBytes
}

// Degraded reports whether the disk layer died (failed append or
// compaction) and the store is serving memory-only.
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskDead
}

// SetEvents attaches an event recorder; store.hit/miss/put and
// compaction lifecycle events flow into it. Nil detaches. Safe to call
// concurrently with operations.
func (s *Store) SetEvents(r *eventlog.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = r
}

// Lifetime returns the cumulative Get/Put counters: the sidecar history
// plus this session's counts.
func (s *Store) Lifetime() Counters {
	return Counters{
		Hits:   s.base.Hits + s.hits.Load(),
		Misses: s.base.Misses + s.misses.Load(),
		Puts:   s.base.Puts + s.puts.Load(),
	}
}

// Close syncs the active segment, releases every file handle, waits
// for the sidecar flusher to exit and persists the lifetime counters
// last. The memory layer stays readable in principle but Put rejects a
// closed store; Close is for shutdown. A second Close returns nil.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Store) closeLocked() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.statsStop != nil {
		close(s.statsStop)
		<-s.statsExited
	}
	s.writeStats()
	first := s.syncLocked()
	if s.active != nil {
		if err := s.active.Close(); err != nil && first == nil {
			first = err
		}
		s.active = nil
	}
	for id, f := range s.readers {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.readers, id)
	}
	if s.lock != nil {
		// Closing releases the flock.
		if err := s.lock.Close(); err != nil && first == nil {
			first = err
		}
		s.lock = nil
	}
	if first != nil {
		return fmt.Errorf("store: close: %w", first)
	}
	return nil
}

// noteOps counts n Get/Put outcomes and kicks the flusher each time
// the count passes a multiple of statsFlushEvery, so lifetime counters
// survive a crash or SIGKILL instead of existing only in memory until
// Close. The caller goes on at once; the rewrite runs on the flusher.
func (s *Store) noteOps(n uint64) {
	if s.statsKick == nil || n == 0 {
		return
	}
	if after := s.ops.Add(n); after/statsFlushEvery != (after-n)/statsFlushEvery {
		s.kickStats()
	}
}

// kickStats asks the flusher for a sidecar rewrite without waiting. A
// kick already pending is enough: the write it starts reads the
// counters then. A memory store has no flusher, and its nil channel
// never takes the send.
func (s *Store) kickStats() {
	select {
	case s.statsKick <- struct{}{}:
	default:
	}
}

// flushStatsLoop is the flusher: one sidecar rewrite per kick, until
// Close stops it.
func (s *Store) flushStatsLoop() {
	defer close(s.statsExited)
	for {
		select {
		case <-s.statsKick:
			s.writeStats()
		case <-s.statsStop:
			return
		}
	}
}

// writeStats rewrites the stats.json sidecar with the cumulative
// counters. While the store is open only the flusher calls it, and
// Close calls it once the flusher has exited, so no two writes overlap
// and Close's is the last. Written only while the flock is held, so two
// stores never race on it — but the lockless Stat path reads it
// concurrently, so the replace must be atomic (write-temp + rename): a
// truncate-then-write would hand Stat an empty or partial file, and a
// crash between the two would destroy exactly the history the periodic
// flush exists to preserve. Best-effort: counter history is advisory.
func (s *Store) writeStats() {
	if s.dir == "" {
		return
	}
	data, err := json.Marshal(s.Lifetime())
	if err != nil {
		return
	}
	tmp := filepath.Join(s.dir, statsSidecar+".tmp")
	if err := s.writeSidecar(tmp, append(data, '\n'), 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, filepath.Join(s.dir, statsSidecar))
}
