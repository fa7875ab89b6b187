package ksym

import (
	"math/rand"
	"testing"

	"vmsh/internal/mem"
)

// The layout of guestos's kernel image: a 4 MiB window of seeded
// random filler, 30 exports at a 0x100 stride from +0x10000, the table
// at +0x300000 and its strings at +0x340000.
const (
	kernelImageSize = 4 << 20
	kernelTabOff    = 0x300000
	kernelStrOff    = 0x340000
)

// kernelNames are the exports guestos's kernel carries, anchors
// included.
var kernelNames = []string{
	"platform_device_register", "platform_device_unregister",
	"filp_open", "filp_close", "kernel_read", "kernel_write",
	"kthread_create_on_node", "wake_up_process", "kthread_stop",
	"do_exit", "call_usermodehelper", "printk",
	"vmalloc", "vfree", "kmalloc", "kfree", "memcpy", "memset",
	"strlen", "strcmp", "mutex_lock", "mutex_unlock", "schedule",
	"msleep", "jiffies_to_msecs", "get_jiffies_64", "capable",
	"register_chrdev", "unregister_chrdev", "vfs_fsync",
}

// randomImage returns n bytes of seeded random filler.
func randomImage(n int, seed int64) []byte {
	img := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(img)
	return img
}

// build encodes the kernelNames table in layout for a table at tabOff
// and strings at strOff of an image based at imgBase.
func build(tb testing.TB, layout Layout, tabOff, strOff int) *Sections {
	tb.Helper()
	syms := make([]Symbol, len(kernelNames))
	for i, n := range kernelNames {
		syms[i] = Symbol{Name: n, Value: imgBase + mem.GVA(0x10000+i*0x100)}
	}
	sec, err := Build(layout, syms, imgBase+mem.GVA(tabOff), imgBase+mem.GVA(strOff))
	if err != nil {
		tb.Fatal(err)
	}
	return sec
}

// embed builds the kernelNames table into img, zeroes a 64-byte margin
// around each section, clipped to img, and copies in whatever of the
// sections fits.
func embed(tb testing.TB, img []byte, layout Layout, tabOff, strOff int) *Sections {
	tb.Helper()
	sec := build(tb, layout, tabOff, strOff)
	for _, s := range []struct {
		off int
		b   []byte
	}{{tabOff, sec.Tab}, {strOff, sec.Strings}} {
		lo, hi := max(s.off-64, 0), min(s.off+len(s.b)+64, len(img))
		clear(img[lo:hi])
		copy(img[s.off:], s.b)
	}
	return sec
}

// kernelImage is a 4 MiB image laid out like guestos's kernel.
func kernelImage(tb testing.TB, layout Layout, seed int64) []byte {
	img := randomImage(kernelImageSize, seed)
	embed(tb, img, layout, kernelTabOff, kernelStrOff)
	return img
}

// BenchmarkScan recovers the export table from a 4 MiB kernel image,
// per layout: the sideloader's kernel_scan step minus the read.
func BenchmarkScan(b *testing.B) {
	for _, layout := range []Layout{LayoutAbsolute, LayoutPosRel, LayoutPosRelNS} {
		b.Run(layout.String(), func(b *testing.B) {
			img := kernelImage(b, layout, 1)
			b.ReportAllocs()
			b.SetBytes(int64(len(img)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Scan(img, imgBase)
				if err != nil {
					b.Fatal(err)
				}
				if res.Layout != layout || len(res.Symbols) != len(kernelNames) {
					b.Fatalf("recovered %d symbols as %v", len(res.Symbols), res.Layout)
				}
			}
		})
	}
}
