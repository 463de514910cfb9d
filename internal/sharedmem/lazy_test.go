package sharedmem

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func TestLazyBackingKeepsCapacity(t *testing.T) {
	m := New(0)
	if m.Size() != DefaultSize {
		t.Fatalf("Size() = %d, want %d", m.Size(), DefaultSize)
	}
	if len(m.data) != 0 {
		t.Fatalf("fresh SRAM backs %d bytes, want 0", len(m.data))
	}
	if _, err := m.Alloc("ring", 512); err != nil {
		t.Fatal(err)
	}
	if len(m.data) != 512 {
		t.Fatalf("backing after a 512-byte Alloc is %d bytes, want the high-water mark 512", len(m.data))
	}
	if m.Size() != DefaultSize {
		t.Fatalf("Size() after Alloc = %d, want %d", m.Size(), DefaultSize)
	}
}

func TestUntouchedBytesReadZero(t *testing.T) {
	m := New(0)
	if err := m.Write8(10, 0xff); err != nil {
		t.Fatal(err)
	}
	last := uint32(DefaultSize)
	if v, err := m.Read8(last - 1); err != nil || v != 0 {
		t.Errorf("Read8(last) = %#x, %v; want 0", v, err)
	}
	if v, err := m.Read16(last - 2); err != nil || v != 0 {
		t.Errorf("Read16(last) = %#x, %v; want 0", v, err)
	}
	if v, err := m.Read32(last - 4); err != nil || v != 0 {
		t.Errorf("Read32(last) = %#x, %v; want 0", v, err)
	}
	// Reads straddling the end of what was written: the written byte
	// and zeros around it.
	if v, err := m.Read32(9); err != nil || v != 0xff00 {
		t.Errorf("Read32(9) = %#x, %v; want 0xff00", v, err)
	}
	b, err := m.ReadBytes(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 0, 0xff, 0, 0, 0, 0, 0}; !reflect.DeepEqual(b, want) {
		t.Errorf("ReadBytes(8, 8) = %v, want %v", b, want)
	}
	b, err = m.ReadBytes(100000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, make([]byte, 64)) {
		t.Errorf("ReadBytes of untouched SRAM = %v, want zeros", b)
	}
}

func TestOutOfRangeAccessError(t *testing.T) {
	m := New(0)
	end := uint32(DefaultSize)
	cases := []struct {
		f    func() error
		want AccessError
	}{
		{func() error { _, err := m.Read8(end); return err }, AccessError{"read", end, 1, DefaultSize}},
		{func() error { return m.Write8(end, 1) }, AccessError{"write", end, 1, DefaultSize}},
		{func() error { _, err := m.Read16(end - 1); return err }, AccessError{"read", end - 1, 2, DefaultSize}},
		{func() error { return m.Write16(end-1, 1) }, AccessError{"write", end - 1, 2, DefaultSize}},
		{func() error { _, err := m.Read32(end - 2); return err }, AccessError{"read", end - 2, 4, DefaultSize}},
		{func() error { return m.Write32(end-3, 1) }, AccessError{"write", end - 3, 4, DefaultSize}},
		{func() error { _, err := m.ReadBytes(end-10, 11); return err }, AccessError{"read", end - 10, 11, DefaultSize}},
		{func() error { return m.WriteBytes(end-1, []byte{1, 2}) }, AccessError{"write", end - 1, 2, DefaultSize}},
		{func() error { return m.Fill(1<<20, 1, 0) }, AccessError{"write", 1 << 20, 1, DefaultSize}},
	}
	for i, c := range cases {
		var ae *AccessError
		if err := c.f(); !errors.As(err, &ae) || *ae != c.want {
			t.Errorf("case %d: got %v, want %+v", i, err, c.want)
		}
	}
	if len(m.data) != 0 {
		t.Errorf("rejected accesses grew the backing to %d bytes", len(m.data))
	}
}

func TestWriteLastByte(t *testing.T) {
	m := New(0)
	last := uint32(DefaultSize - 1)
	if err := m.Write8(last, 0xaa); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Read8(last); err != nil || v != 0xaa {
		t.Fatalf("Read8(last) = %#x, %v; want 0xaa", v, err)
	}
	if v, err := m.Read8(last - 1); err != nil || v != 0 {
		t.Fatalf("Read8(last-1) = %#x, %v; want 0", v, err)
	}
}

// TestLazyMatchesFlatModel drives random accesses — in range, straddling
// the capacity and beyond it — against a lazily backed SRAM and a flat
// zeroed byte slice of the same capacity; every answer must agree.
func TestLazyMatchesFlatModel(t *testing.T) {
	const size = 4096
	m := New(size)
	flat := make([]byte, size)
	rng := rand.New(rand.NewSource(1))
	inRange := func(addr uint32, n int) bool { return int(addr)+n <= size }
	for i := 0; i < 20000; i++ {
		addr := uint32(rng.Intn(size + 16))
		v := rng.Uint32()
		switch op := rng.Intn(8); op {
		case 0:
			err := m.Write8(addr, byte(v))
			if (err == nil) != inRange(addr, 1) {
				t.Fatalf("Write8(%d): %v", addr, err)
			}
			if err == nil {
				flat[addr] = byte(v)
			}
		case 1:
			err := m.Write16(addr, uint16(v))
			if (err == nil) != inRange(addr, 2) {
				t.Fatalf("Write16(%d): %v", addr, err)
			}
			if err == nil {
				binary.LittleEndian.PutUint16(flat[addr:], uint16(v))
			}
		case 2:
			err := m.Write32(addr, v)
			if (err == nil) != inRange(addr, 4) {
				t.Fatalf("Write32(%d): %v", addr, err)
			}
			if err == nil {
				binary.LittleEndian.PutUint32(flat[addr:], v)
			}
		case 3:
			n := rng.Intn(32)
			err := m.Fill(addr, n, byte(v))
			if (err == nil) != inRange(addr, n) {
				t.Fatalf("Fill(%d, %d): %v", addr, n, err)
			}
			for j := 0; err == nil && j < n; j++ {
				flat[int(addr)+j] = byte(v)
			}
		case 4:
			got, err := m.Read8(addr)
			if (err == nil) != inRange(addr, 1) || (err == nil && got != flat[addr]) {
				t.Fatalf("Read8(%d) = %#x, %v", addr, got, err)
			}
		case 5:
			got, err := m.Read16(addr)
			if (err == nil) != inRange(addr, 2) || (err == nil && got != binary.LittleEndian.Uint16(flat[addr:])) {
				t.Fatalf("Read16(%d) = %#x, %v", addr, got, err)
			}
		case 6:
			got, err := m.Read32(addr)
			if (err == nil) != inRange(addr, 4) || (err == nil && got != binary.LittleEndian.Uint32(flat[addr:])) {
				t.Fatalf("Read32(%d) = %#x, %v", addr, got, err)
			}
		case 7:
			n := rng.Intn(64)
			got, err := m.ReadBytes(addr, n)
			if (err == nil) != inRange(addr, n) || (err == nil && !reflect.DeepEqual(got, flat[addr:int(addr)+n])) {
				t.Fatalf("ReadBytes(%d, %d) = %v, %v", addr, n, got, err)
			}
		}
	}
}
