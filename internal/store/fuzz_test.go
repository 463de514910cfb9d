package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
)

// frameRecord frames one record payload exactly as appendRecordsLocked
// does: u32 LE length, u32 LE CRC32, payload.
func frameRecord(payload []byte) []byte {
	b := make([]byte, recordHeaderLen, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// v1Record and v2Record frame key(i)'s cell in the legacy and the
// current envelope.
func v1Record(tb testing.TB, i int) []byte {
	b, err := json.Marshal(record{Key: key(i), Cell: cellFor(i)})
	if err != nil {
		tb.Fatal(err)
	}
	return frameRecord(b)
}

func v2Record(tb testing.TB, i int) []byte {
	p, err := encodePending(key(i), cellFor(i), 1_700_000_000)
	if err != nil {
		tb.Fatal(err)
	}
	return frameRecord(p.payload)
}

// walkSegment runs the replay decoder over the file at path and
// returns where it stopped, whether that was a clean record boundary,
// and the offset of each key's newest record.
func walkSegment(t *testing.T, path string) (off int64, clean bool, newest map[string]int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	newest = map[string]int64{}
	off, clean, err = walkRecords(f, func(k string, payloadOff int64, _ int, _ recMeta) {
		newest[k] = payloadOff - recordHeaderLen
	})
	if err != nil {
		t.Fatalf("walking %s: %v", path, err)
	}
	return off, clean, newest
}

// FuzzSegmentReplay feeds Open a segment of valid v1/v2 records
// followed by arbitrary bytes: a crash mid-append, a flipped bit, or a
// tail that happens to decode. Open must not panic or fail, must keep
// serving every key written before the garbage (unless the garbage
// holds a newer record for it), and must truncate the segment to the
// offset walkRecords stops at, so a second Open walks clean and serves
// the same keys.
func FuzzSegmentReplay(f *testing.F) {
	// Seeds from the torn-tail and mixed-version tests: the half record
	// of TestTornTailRecordIsTruncatedOnOpen, the v1-then-v2 segment of
	// TestMixedV1V2RecordsReplayFromOneSegment, the last three bytes
	// TestTornV2TailTruncatedOnReopen cuts, the half record
	// TestTornTailAtSegmentRotationBoundary leaves, a CRC mismatch, a
	// length past MaxRecordBytes, a tail that re-puts key 0, and the
	// 60 MiB claim of TestTornHugeClaimAllocatesNothingOnOpen.
	torn := v2Record(f, 2)
	flipped := v1Record(f, 1)
	flipped[len(flipped)-2] ^= 0xff
	f.Add(uint8(3), uint8(0), []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Add(uint8(2), uint8(0b01), []byte(nil))
	f.Add(uint8(2), uint8(0), torn[:len(torn)-3])
	f.Add(uint8(4), uint8(0b1010), torn[:len(torn)/2])
	f.Add(uint8(1), uint8(1), flipped)
	f.Add(uint8(1), uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(uint8(2), uint8(0), v2Record(f, 0))
	f.Add(uint8(0), uint8(0), hugeClaimSegment())

	f.Fuzz(func(t *testing.T, n, v1mask uint8, tail []byte) {
		n %= 5
		var seg []byte
		for i := 0; i < int(n); i++ {
			if v1mask>>i&1 == 1 {
				seg = append(seg, v1Record(t, i)...)
			} else {
				seg = append(seg, v2Record(t, i)...)
			}
		}
		prefix := int64(len(seg))
		dir := t.TempDir()
		path := segFile(dir, 1)
		if err := os.WriteFile(path, append(seg, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		stop, _, newest := walkSegment(t, path)

		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("Open over %d bytes of tail: %v", len(tail), err)
		}
		serves := func(s *Store) {
			t.Helper()
			for i := 0; i < int(n); i++ {
				if newest[key(i)] >= prefix {
					continue // the tail holds a newer record for this key
				}
				got, ok := s.Get(key(i))
				if !ok || !reflect.DeepEqual(got, cellFor(i)) {
					t.Fatalf("key %d written before the tail: got %+v, hit=%v", i, got, ok)
				}
			}
		}
		serves(s)
		if st, err := os.Stat(path); err != nil || st.Size() != stop {
			t.Fatalf("segment after Open: %v, %v; walkRecords stopped at %d", st.Size(), err, stop)
		}
		entries := s.Stats().DiskEntries
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		if off, clean, _ := walkSegment(t, path); !clean || off != stop {
			t.Fatalf("second walk stopped at %d (clean=%v), want a clean end at %d", off, clean, stop)
		}
		s2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s2.Close()
		serves(s2)
		if got := s2.Stats().DiskEntries; got != entries {
			t.Fatalf("second Open indexes %d keys, first indexed %d", got, entries)
		}
	})
}
