package mem

// These benchmarks use only NewPhys, ReadAt, WriteAt and HashRange, so
// the file runs unchanged against a dense-slab Phys for comparison.

import "testing"

// bootedRAM returns a 64 MiB slab with the page layout of a booted,
// attached and detached guest: 1,047 non-zero pages, most of them the
// kernel image in one run, the rest scattered.
func bootedRAM() *Phys {
	p := NewPhys(0, 64<<20)
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(i | 1)
	}
	for i := 0; i < 1047; i++ {
		idx := 256 + i // kernel image run
		if i >= 900 {
			idx = 4096 + (i-900)*60 // page tables, rings, stacks
		}
		p.WriteAt(GPA(idx*PageSize), page)
	}
	return p
}

var sinkHash uint64

// BenchmarkPhysHashRange times a whole-slab hash that reads the pages:
// a one-byte zero store into an absent page before each hash keeps
// HashRange from answering with the hash it remembers.
func BenchmarkPhysHashRange(b *testing.B) {
	p := bootedRAM()
	var zero [1]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.WriteAt(0, zero[:])
		sinkHash = p.HashRange(0, 64<<20)
	}
}

// BenchmarkPhysReadWrite times ReadAt and WriteAt at 8 B, 4 KiB and
// 64 KiB on materialized and absent pages, and across a page boundary.
func BenchmarkPhysReadWrite(b *testing.B) {
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i | 1)
	}
	cases := []struct {
		name string
		off  GPA
		n    int
	}{
		{"8B", 0, 8},
		{"4KiB", 0, PageSize},
		{"64KiB", 0, 64 << 10},
		{"straddle8B", PageSize - 4, 8},
		{"straddle4KiB", PageSize / 2, PageSize},
	}
	for _, c := range cases {
		for _, present := range []bool{true, false} {
			state := "absent"
			if present {
				state = "present"
			}
			for _, op := range []string{"read", "write"} {
				b.Run(op+"/"+state+"/"+c.name, func(b *testing.B) {
					p := NewPhys(0, 1<<20)
					if present {
						p.WriteAt(0, data)
					}
					buf := make([]byte, c.n)
					if op == "write" && !present {
						// Zero stores keep absent pages absent.
						clear(buf)
					} else {
						copy(buf, data)
					}
					b.ReportAllocs()
					b.SetBytes(int64(c.n))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if op == "read" {
							p.ReadAt(c.off, buf)
						} else {
							p.WriteAt(c.off, buf)
						}
					}
				})
			}
		}
	}
}
