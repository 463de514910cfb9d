// Mixed-version on-disk format tests: v1 (untagged) records written by
// older builds must replay alongside v2 envelopes forever, compaction
// must migrate them to v2 without touching a single cell-payload byte,
// and the GC policy must respect the v1 exemption and the last-hit
// refresh. These are the compatibility contracts README's "Store v2"
// section promises.
package store

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/report"
)

// appendFramed appends one CRC32-framed record payload to a segment
// file, exactly as the store's own appendRecordsLocked frames it.
func appendFramed(t *testing.T, path string, payload []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(frameRecord(payload)); err != nil {
		t.Fatal(err)
	}
}

// v1Payload marshals the legacy {"key","cell"} record shape — what a
// pre-v2 build persisted.
func v1Payload(t *testing.T, key string, cell report.Cell) []byte {
	t.Helper()
	b, err := json.Marshal(record{Key: key, Cell: cell})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestV2PayloadIsItsPersistRecordJSON pins the bytes a put writes:
// encodePending builds them without reflection, and they must stay
// exactly json.Marshal of the record's persistRecord.
func TestV2PayloadIsItsPersistRecordJSON(t *testing.T) {
	odd := cellFor(3)
	odd.ID, odd.Summary.FirstBug = "w/<&>", "tab\there \"quoted\" \xff"
	for _, tc := range []struct {
		cell report.Cell
		now  int64
	}{{cellFor(1), 1_700_000_000}, {odd, 1_700_000_001}, {cellFor(2), 0}} {
		p, err := encodePending("k", tc.cell, tc.now)
		if err != nil {
			t.Fatal(err)
		}
		cellJSON, err := json.Marshal(tc.cell)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(persistRecord{
			Key: "k", V: recordVersion, Schema: report.SchemaVersion,
			Created: tc.now, Hit: tc.now, Cell: cellJSON,
		})
		if err != nil {
			t.Fatal(err)
		}
		if string(p.payload) != string(want) {
			t.Fatalf("payload\n%s\nwant\n%s", p.payload, want)
		}
	}
}

func TestMixedV1V2RecordsReplayFromOneSegment(t *testing.T) {
	// A store upgraded mid-life has v1 and v2 records interleaved in the
	// same segment. Replay must serve both, forever.
	dir := t.TempDir()
	appendFramed(t, segFile(dir, 1), v1Payload(t, key(0), cellFor(0)))

	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), cellFor(1)); err != nil { // v2, same segment
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.DiskEntries != 2 {
		t.Fatalf("disk entries = %d, want 2 (one v1 + one v2)", st.DiskEntries)
	}
	for i := 0; i < 2; i++ {
		got, ok := s2.Get(key(i))
		if !ok {
			t.Fatalf("key %d unreadable from mixed-version log", i)
		}
		if !reflect.DeepEqual(got, cellFor(i)) {
			t.Fatalf("key %d: cell mangled: %+v", i, got)
		}
	}
}

func TestCompactMigratesV1ToV2PreservingCellPayloadBytes(t *testing.T) {
	// The migration guarantee: compaction rewrites every v1 envelope as
	// v2 while the embedded cell JSON stays byte-identical — so cell
	// keys, digests and canonical reports computed before the upgrade
	// stay valid after it.
	dir := t.TempDir()
	const n = 5
	wantCell := map[string][]byte{}
	for i := 0; i < n; i++ {
		cellJSON, err := json.Marshal(cellFor(i))
		if err != nil {
			t.Fatal(err)
		}
		wantCell[key(i)] = cellJSON
		appendFramed(t, segFile(dir, 1), v1Payload(t, key(i), cellFor(i)))
	}

	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.MigratedRecords != n {
		t.Fatalf("migrated %d records, want %d", res.MigratedRecords, n)
	}
	if res.ExpiredEntries != 0 {
		t.Fatalf("zero-policy compaction expired %d entries", res.ExpiredEntries)
	}

	// Every rewritten record is a v2 envelope whose cell payload bytes
	// are exactly the v1 original's.
	seen := map[string][]byte{}
	ids, err := segmentIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		f, err := os.Open(segFile(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		payload := func(off int64, n int) []byte {
			buf := make([]byte, n)
			if _, err := f.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
			return buf
		}
		if _, clean, err := walkRecords(f, func(k string, off int64, n int, meta recMeta) {
			if meta.v != recordVersion {
				t.Fatalf("key %s still v%d after migration", k, meta.v)
			}
			if meta.schema != report.SchemaVersion || meta.created == 0 || meta.hit == 0 {
				t.Fatalf("key %s migrated with bad meta %+v", k, meta)
			}
			var rec persistRecord
			if err := json.Unmarshal(payload(off, n), &rec); err != nil {
				t.Fatal(err)
			}
			seen[k] = []byte(rec.Cell)
		}); err != nil || !clean {
			t.Fatalf("post-migration segment unclean: clean=%v err=%v", clean, err)
		}
		_ = f.Close()
	}
	if len(seen) != n {
		t.Fatalf("post-migration log has %d records, want %d", len(seen), n)
	}
	for k, want := range wantCell {
		if string(seen[k]) != string(want) {
			t.Fatalf("key %s cell payload changed across migration:\nwant %s\ngot  %s", k, want, seen[k])
		}
	}

	// A second pass has nothing left to migrate.
	res2, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res2.MigratedRecords != 0 {
		t.Fatalf("second compaction migrated %d records again", res2.MigratedRecords)
	}
	// And everything still reads back whole.
	for i := 0; i < n; i++ {
		if got, ok := s.Get(key(i)); !ok || !reflect.DeepEqual(got, cellFor(i)) {
			t.Fatalf("key %d lost or mangled after migration: %+v ok=%v", i, got, ok)
		}
	}
}

func TestTornV2TailTruncatedOnReopen(t *testing.T) {
	// Crash mid-append of a v2 record: reopening truncates exactly the
	// torn tail and keeps serving the intact prefix.
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := segFile(dir, 1)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("torn v2 tail must not fail open: %v", err)
	}
	defer s2.Close()
	if got := s2.Stats().DiskEntries; got != 2 {
		t.Fatalf("disk entries = %d, want 2 (torn record dropped)", got)
	}
	if _, ok := s2.Get(key(2)); ok {
		t.Fatal("torn record still served")
	}
	for i := 0; i < 2; i++ {
		if _, ok := s2.Get(key(i)); !ok {
			t.Fatalf("intact key %d lost to tail truncation", i)
		}
	}
	if err := s2.Put(key(3), cellFor(3)); err != nil {
		t.Fatalf("append after tail truncation: %v", err)
	}
}

func TestGCMaxIdleNeverExpiresRecentlyHitEntry(t *testing.T) {
	// The MaxIdle clock restarts on every hit: an entry the fleet still
	// reads is never reclaimed, no matter how old it is.
	fw := clock.NewFakeWall(time.Unix(1_700_000_000, 0))
	s, err := Open(Config{Dir: t.TempDir(), Clock: fw})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 5
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}

	fw.Advance(30 * time.Minute)
	if _, ok := s.Get(key(0)); !ok { // refreshes key 0's idle clock
		t.Fatal("warm get missed")
	}
	fw.Advance(31 * time.Minute) // key 0 idle 31m, the rest idle 61m

	res, err := s.CompactPolicy(GCPolicy{MaxIdle: 45 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpiredEntries != n-1 {
		t.Fatalf("expired %d entries, want %d", res.ExpiredEntries, n-1)
	}
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("GC removed the entry hit within MaxIdle")
	}
	for i := 1; i < n; i++ {
		if _, ok := s.Get(key(i)); ok {
			t.Fatalf("idle key %d survived MaxIdle GC", i)
		}
	}
}

func TestGCMaxAgeExpiresOldV2ButExemptsUnmigratedV1(t *testing.T) {
	// v1 records carry no dates, so age/idle rules cannot judge them:
	// the first policy pass migrates them (stamping now) instead of
	// mass-expiring a freshly upgraded store.
	start := time.Unix(1_700_000_000, 0)
	fw := clock.NewFakeWall(start)
	dir := t.TempDir()
	appendFramed(t, segFile(dir, 1), v1Payload(t, "legacy", cellFor(99)))

	s, err := Open(Config{Dir: dir, Clock: fw})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("young", cellFor(1)); err != nil {
		t.Fatal(err)
	}
	fw.Advance(2 * time.Hour)
	if err := s.Put("old-but-fresh", cellFor(2)); err != nil {
		t.Fatal(err)
	}

	res, err := s.CompactPolicy(GCPolicy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpiredEntries != 1 {
		t.Fatalf("expired %d entries, want 1 (only the aged v2 record)", res.ExpiredEntries)
	}
	if _, ok := s.Get("young"); ok {
		t.Fatal("2h-old v2 record survived MaxAge=1h")
	}
	if _, ok := s.Get("legacy"); !ok {
		t.Fatal("undated v1 record expired before migration stamped it")
	}
	if res.MigratedRecords != 1 {
		t.Fatalf("migrated %d records, want 1", res.MigratedRecords)
	}

	// Migration stamped created=now, so the legacy record now ages like
	// any other: two more hours and the same policy takes it.
	fw.Advance(2 * time.Hour)
	res2, err := s.CompactPolicy(GCPolicy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ExpiredEntries != 2 { // legacy + old-but-fresh, both stamped 2h ago
		t.Fatalf("expired %d entries, want 2", res2.ExpiredEntries)
	}
	if _, ok := s.Get("legacy"); ok {
		t.Fatal("migrated record exempt forever — migration did not stamp dates")
	}
}

func TestGCSchemaBelowReclaimsUnmigratedV1(t *testing.T) {
	// SchemaBelow is the explicit opt-in for reclaiming legacy records:
	// v1 counts as schema 0, so any positive threshold takes it.
	dir := t.TempDir()
	appendFramed(t, segFile(dir, 1), v1Payload(t, "legacy", cellFor(0)))
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("current", cellFor(1)); err != nil {
		t.Fatal(err)
	}
	res, err := s.CompactPolicy(GCPolicy{SchemaBelow: report.SchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpiredEntries != 1 {
		t.Fatalf("expired %d entries, want 1 (the schema-0 v1 record)", res.ExpiredEntries)
	}
	if _, ok := s.Get("legacy"); ok {
		t.Fatal("v1 record survived SchemaBelow")
	}
	if _, ok := s.Get("current"); !ok {
		t.Fatal("current-schema record reclaimed by SchemaBelow")
	}
}

func TestStatCountsEnvelopeVersionsAndEstimatesGC(t *testing.T) {
	fw := clock.NewFakeWall(time.Unix(1_700_000_000, 0))
	dir := t.TempDir()
	appendFramed(t, segFile(dir, 1), v1Payload(t, "legacy", cellFor(0)))
	s, err := Open(Config{Dir: dir, Clock: fw})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if err := s.Put(key(i), cellFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ds, err := Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.V1Records != 1 || ds.V2Records != 3 {
		t.Fatalf("v1/v2 split = %d/%d, want 1/3", ds.V1Records, ds.V2Records)
	}
	if ds.SchemaCounts[0] != 1 || ds.SchemaCounts[report.SchemaVersion] != 3 {
		t.Fatalf("schema counts = %v", ds.SchemaCounts)
	}

	// The estimate applies exactly the compaction rules: an age policy
	// takes the dated v2 records once they age out, never the undated v1.
	now := fw.Now().Add(2 * time.Hour)
	est := ds.EstimateGC(GCPolicy{MaxAge: time.Hour}, now)
	if est.Entries != 3 || est.Bytes <= 0 {
		t.Fatalf("age estimate = %+v, want 3 entries", est)
	}
	if est := ds.EstimateGC(GCPolicy{SchemaBelow: report.SchemaVersion}, now); est.Entries != 1 {
		t.Fatalf("schema estimate = %+v, want 1 entry", est)
	}
	if est := ds.EstimateGC(GCPolicy{}, now); est.Entries != 0 {
		t.Fatalf("zero policy estimated %d entries", est.Entries)
	}
}
