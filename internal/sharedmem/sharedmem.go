// Package sharedmem models the shared internal SRAM of the OMAP5912
// (250 Kbytes) through which the ARM master and the DSP slave exchange
// data. Accesses are bounds-checked, little-endian, and can be observed
// through write watchpoints — the hook the bug detector and the
// Figure 1 reproduction use to see the shared flags change.
package sharedmem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultSize is the OMAP5912's shared internal SRAM size: 250 KB.
const DefaultSize = 250 * 1024

// AccessError reports an out-of-bounds access.
type AccessError struct {
	Op   string
	Addr uint32
	Size int
	Cap  int
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("sharedmem: %s of %d bytes at 0x%x exceeds %d-byte SRAM",
		e.Op, e.Size, e.Addr, e.Cap)
}

// Region is a named allocation within the SRAM.
type Region struct {
	Name string
	Base uint32
	Size uint32
}

// End returns the first address past the region.
func (r Region) End() uint32 { return r.Base + r.Size }

// watch is a registered write watchpoint.
type watch struct {
	base uint32
	size uint32
	fn   func(addr uint32, size int)
}

// Memory is the simulated SRAM. Not safe for concurrent use; the
// co-simulation is single-threaded by design.
//
// The capacity is fixed at New, but host memory is spent only on the
// prefix the simulation has reached: data backs [0, len(data)) and
// grows to the allocation high-water mark and to any in-capacity
// address an access touches. Bytes past it read as zero, so the model
// is indistinguishable from a zeroed SRAM of the full size, while a
// platform boot, whose regions use a small prefix of the 250 KB, does
// not allocate and zero all of it.
type Memory struct {
	size    int // capacity in bytes
	data    []byte
	regions []Region
	next    uint32
	watches []watch
}

// New returns a zeroed SRAM of the given size (DefaultSize if size <= 0).
func New(size int) *Memory {
	if size <= 0 {
		size = DefaultSize
	}
	return &Memory{size: size}
}

// Size returns the SRAM capacity in bytes.
func (m *Memory) Size() int { return m.size }

// back grows the backing to cover [0, end); end is within capacity.
// The backing array is zeroed when made and never written past len, so
// reslicing within cap exposes only zero bytes.
func (m *Memory) back(end int) {
	if end <= len(m.data) {
		return
	}
	if end > cap(m.data) {
		data := make([]byte, len(m.data), min(max(end, 2*cap(m.data)), m.size))
		copy(data, m.data)
		m.data = data
	}
	m.data = m.data[:end]
}

// Alloc reserves a fresh region of the given size at the lowest free
// address (bump allocation; regions are never freed — the platform's
// layout is fixed at boot, as on the real middleware).
func (m *Memory) Alloc(name string, size uint32) (Region, error) {
	if size == 0 {
		return Region{}, fmt.Errorf("sharedmem: zero-size region %q", name)
	}
	if m.next+size > uint32(m.size) || m.next+size < m.next {
		return Region{}, fmt.Errorf("sharedmem: out of SRAM allocating %d bytes for %q (used %d of %d)",
			size, name, m.next, m.size)
	}
	r := Region{Name: name, Base: m.next, Size: size}
	m.next += size
	m.regions = append(m.regions, r)
	m.back(int(m.next))
	return r, nil
}

// Regions returns the allocated regions ordered by base address.
func (m *Memory) Regions() []Region {
	out := append([]Region{}, m.regions...)
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// Used returns the number of bytes allocated so far.
func (m *Memory) Used() uint32 { return m.next }

// access bounds-checks an access against the capacity and backs the
// bytes it touches.
func (m *Memory) access(op string, addr uint32, size int) error {
	if int(addr)+size > m.size || int(addr) < 0 {
		return &AccessError{Op: op, Addr: addr, Size: size, Cap: m.size}
	}
	m.back(int(addr) + size)
	return nil
}

func (m *Memory) notify(addr uint32, size int) {
	for _, w := range m.watches {
		if addr < w.base+w.size && addr+uint32(size) > w.base {
			w.fn(addr, size)
		}
	}
}

// OnWrite registers fn to run after any write overlapping [base, base+size).
func (m *Memory) OnWrite(base, size uint32, fn func(addr uint32, size int)) {
	m.watches = append(m.watches, watch{base: base, size: size, fn: fn})
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32) (byte, error) {
	if err := m.access("read", addr, 1); err != nil {
		return 0, err
	}
	return m.data[addr], nil
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v byte) error {
	if err := m.access("write", addr, 1); err != nil {
		return err
	}
	m.data[addr] = v
	m.notify(addr, 1)
	return nil
}

// Read16 reads a little-endian 16-bit value.
func (m *Memory) Read16(addr uint32) (uint16, error) {
	if err := m.access("read", addr, 2); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(m.data[addr:]), nil
}

// Write16 writes a little-endian 16-bit value.
func (m *Memory) Write16(addr uint32, v uint16) error {
	if err := m.access("write", addr, 2); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(m.data[addr:], v)
	m.notify(addr, 2)
	return nil
}

// Read32 reads a little-endian 32-bit value.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	if err := m.access("read", addr, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(m.data[addr:]), nil
}

// Write32 writes a little-endian 32-bit value.
func (m *Memory) Write32(addr uint32, v uint32) error {
	if err := m.access("write", addr, 4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(m.data[addr:], v)
	m.notify(addr, 4)
	return nil
}

// ReadBytes copies size bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint32, size int) ([]byte, error) {
	if err := m.access("read", addr, size); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, m.data[addr:])
	return out, nil
}

// WriteBytes copies b into the SRAM at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	if err := m.access("write", addr, len(b)); err != nil {
		return err
	}
	copy(m.data[addr:], b)
	m.notify(addr, len(b))
	return nil
}

// Fill sets size bytes from addr to v.
func (m *Memory) Fill(addr uint32, size int, v byte) error {
	if err := m.access("write", addr, size); err != nil {
		return err
	}
	for i := 0; i < size; i++ {
		m.data[int(addr)+i] = v
	}
	m.notify(addr, size)
	return nil
}
