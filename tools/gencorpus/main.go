// Command gencorpus regenerates the committed seed corpora under
// internal/*/testdata/fuzz/. Seeds mirror the f.Add calls in each fuzz
// target but live on disk so CI can run the targets against a
// committed corpus without first fuzzing.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"vmsh"
	"vmsh/internal/arch"
	"vmsh/internal/fsimage"
	"vmsh/internal/hypervisor"
	"vmsh/internal/ksym"
	"vmsh/internal/lifecycle"
	"vmsh/internal/mem"
	"vmsh/internal/simplefs"
	"vmsh/internal/storage"
	"vmsh/internal/virtio"
)

// marshal encodes values in the `go test fuzz v1` corpus file format.
func marshal(vals ...any) []byte {
	out := []byte("go test fuzz v1\n")
	for _, v := range vals {
		switch t := v.(type) {
		case string:
			out = append(out, fmt.Sprintf("string(%q)\n", t)...)
		case []byte:
			out = append(out, fmt.Sprintf("[]byte(%q)\n", t)...)
		case byte:
			out = append(out, fmt.Sprintf("byte(%q)\n", rune(t))...)
		default:
			log.Fatalf("unsupported corpus type %T", v)
		}
	}
	return out
}

func writeCorpus(dir string, entries [][]byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for i, e := range entries {
		name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		if err := os.WriteFile(name, e, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

func seedRing(size int) []byte {
	db, ab, ub := virtio.QueueLayout(size)
	phys := mem.NewPhys(0, uint64(db+ab+ub))
	io := mem.SlabIO{Phys: phys}
	dq := &virtio.DriverQueue{M: io, Size: size, Desc: 0, Avail: mem.GPA(db), Used: mem.GPA(db + ab)}
	if err := dq.InitRings(); err != nil {
		log.Fatal(err)
	}
	if err := dq.Publish(0, []virtio.ChainElem{{Addr: 0x100, Len: 32}, {Addr: 0x200, Len: 64, Write: true}}); err != nil {
		log.Fatal(err)
	}
	if err := dq.Publish(4, []virtio.ChainElem{{Addr: 0x300, Len: 16}}); err != nil {
		log.Fatal(err)
	}
	ring := make([]byte, phys.Size())
	phys.ReadAt(0, ring)
	return ring
}

func ksymImage(layout ksym.Layout) []byte {
	const imgBase = mem.GVA(0xffffffff81000000)
	names := []string{
		"filp_open", "filp_close", "kernel_read", "kernel_write",
		"wake_up_process", "kthread_create_on_node", "kthread_stop",
		"schedule", "do_exit", "platform_device_register",
		"register_virtio_mmio_device", "vmalloc", "vfree",
		"printk", "memcpy", "strlen",
	}
	syms := make([]ksym.Symbol, len(names))
	for i, n := range names {
		syms[i] = ksym.Symbol{Name: n, Value: imgBase + mem.GVA(0x1000+i*0x40)}
	}
	sec, err := ksym.Build(layout, syms, imgBase+mem.GVA(0x800), imgBase+mem.GVA(0x4000))
	if err != nil {
		log.Fatal(err)
	}
	img := make([]byte, 0x4000+len(sec.Strings)+64)
	copy(img[0x800:], sec.Tab)
	copy(img[0x4000:], sec.Strings)
	return img
}

// snapshotSeed encodes a snapshot of a freshly booted VM with a vmsh
// session attached. Its RAM pages, disk blocks and session-image blocks
// are thinned to the first two so the seed stays small: the kernel
// image alone is about a thousand pages.
func snapshotSeed() []byte {
	lab := vmsh.NewLab()
	vm, err := lab.LaunchVM(vmsh.WithVMName("corpus"), vmsh.WithMemMiB(32), vmsh.WithVMSeed(1),
		vmsh.WithRootFS(vmsh.Manifest{"/etc/hostname": {Data: []byte("corpus\n")}}))
	if err != nil {
		log.Fatal(err)
	}
	img, err := lab.BuildImage("tools.img", vmsh.ToolImage())
	if err != nil {
		log.Fatal(err)
	}
	sess, err := lab.Attach(vm, vmsh.WithImage(img))
	if err != nil {
		log.Fatal(err)
	}
	snap, err := lab.Snapshot(vm, vmsh.WithSnapshotLabel("corpus"), vmsh.WithSnapshotSession(sess))
	if err != nil {
		log.Fatal(err)
	}
	snap.Pages = snap.Pages[:min(2, len(snap.Pages))]
	snap.Disks[0].Blocks = snap.Disks[0].Blocks[:min(2, len(snap.Disks[0].Blocks))]
	snap.Session.Blocks = snap.Session.Blocks[:min(2, len(snap.Session.Blocks))]
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

// configSeeds encodes snapshots that carry only a config record and the
// footer, with every Config field set: strings that need escapes, a
// file with nil data and one with empty data, a symlink and two extra
// disks; then the same with an empty, non-nil manifest and disk list;
// then one whose name is invalid UTF-8, which the reader refuses as not
// canonical.
func configSeeds() [][]byte {
	full := hypervisor.Config{
		Kind: hypervisor.Firecracker, Name: "cfg <&> \"q\"\n\u2028", Arch: arch.ARM64,
		KernelVersion: "5.10", RAMSize: 1<<64 - 1, VCPUs: -1, Seed: -1 << 63,
		RootFS: fsimage.Manifest{
			"/etc/hostname":     {Mode: 0o644, UID: 1, GID: 1<<32 - 1, Data: []byte("cfg\n")},
			"/etc/empty":        {Data: []byte{}},
			"/etc/none":         {},
			"/bin/sh":           {Symlink: "/bin/busybox"},
			"/\u65e5\u672c\t\\": {Mode: 0o755, Data: []byte{0, 0xff}},
		},
		RootImageSize: 1 << 40,
		ExtraDisks: []hypervisor.DiskSpec{
			{GuestName: "vdb", Size: 64 << 20, Mkfs: true, MountAt: "/data"},
			{GuestName: "vdc", Size: -1},
		},
		NinePShare: true, DisableSeccomp: true, SeccompProfile: "vmsh-compatible",
	}
	empty := hypervisor.Config{Name: "cfg", RootFS: fsimage.Manifest{}, ExtraDisks: []hypervisor.DiskSpec{}}
	invalid := hypervisor.Config{Name: "cfg\xff"}
	var out [][]byte
	for _, c := range []hypervisor.Config{full, empty, invalid} {
		var buf bytes.Buffer
		if _, err := (&lifecycle.Snapshot{Label: "config", Config: c}).WriteTo(&buf); err != nil {
			log.Fatal(err)
		}
		out = append(out, marshal(buf.Bytes()))
	}
	return out
}

// simplefsSeeds builds FuzzSimplefsImage's image (the smallest
// filesystem, holding /dir/small, /dir/big and /link) and aims a patch
// list at each of: nothing, the superblock's quota block count, the big
// file's first block pointer, the root directory's last entry slot (a
// live entry with a 255-byte name), the symlink's size (1<<62), the
// small file's second and third block pointers (at the inode table and
// the quota table, outside the data region, where the write phase
// writes and then frees them) and the superblock's free block and
// inode counts (raised to claim every block and inode free). A patch
// is a little-endian u32 image offset and the byte stored there.
func simplefsSeeds() [][]byte {
	dev := storage.NewMemBlock(64 * simplefs.BlockSize)
	if err := fsimage.Build(dev, fsimage.Manifest{
		"/dir/small": {Data: []byte("hello")},
		"/dir/big":   {Data: bytes.Repeat([]byte("0123456789abcdef"), 13*simplefs.BlockSize/16)},
		"/link":      {Symlink: "dir/small"},
	}); err != nil {
		log.Fatal(err)
	}
	img := make([]byte, dev.Size())
	fs, err := simplefs.Mount(dev)
	if err == nil {
		err = dev.ReadAt(0, img)
	}
	if err != nil {
		log.Fatal(err)
	}
	ino := func(path ...string) int {
		n, err := fs.Root()
		for _, name := range path {
			if err == nil {
				n, err = n.Lookup(name)
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		return int(n.ID())
	}
	// Counting from 0, the superblock's words 1, 2, 7, 9 and 11 hold
	// the block count, the inode count and the starts of the inode
	// table, the quota table and the data region; words 13 and 14
	// (offsets 52 and 56) the free block and inode counts. Inodes are
	// 128 bytes, the size at +16 and the block pointers from +48.
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(img[off:])) }
	inode := func(n int) int { return (u32(28)+n/32)*simplefs.BlockSize + n%32*128 }
	lastSlot := u32(inode(ino())+48)*simplefs.BlockSize + 15*256
	patch := func(kv ...int) []byte {
		var b []byte
		for i := 0; i < len(kv); i += 2 {
			b = append(binary.LittleEndian.AppendUint32(b, uint32(kv[i])), byte(kv[i+1]))
		}
		return marshal(b)
	}
	return [][]byte{
		patch(),
		patch(43, 0xff),
		patch(inode(ino("dir", "big"))+51, 0xff),
		patch(lastSlot, ino("dir"), lastSlot+5, 255),
		patch(inode(ino("link"))+23, 0x40),
		patch(inode(ino("dir", "small"))+52, u32(28), inode(ino("dir", "small"))+56, u32(36)),
		patch(52, u32(4)-u32(44), 56, u32(8)-1),
	}
}

func main() {
	// faults: rule-grammar specs, accepted and rejected alike.
	specs := []string{
		"ptrace:nth=3",
		"procvm:readv:nth=5,transient",
		"vq:blk:prob=0.01,err=eio,persistent",
		"ptrace:inject:ioctl:lat=2ms,stage=inject_library",
		"prob=0.5",
		"transient",
		"ptrace::nth=1",
		"ptrace:nth=1,,transient",
		"a:b:c:d=e",
		"nth=1;prob=0.5",
	}
	var grammar [][]byte
	for _, s := range specs {
		grammar = append(grammar, marshal(s))
	}
	writeCorpus("internal/faults/testdata/fuzz/FuzzFaultRuleGrammar", grammar)

	// replay: the golden v1 log, headers with version skew, and junk.
	golden, err := os.ReadFile("internal/replay/testdata/golden_v1.log")
	if err != nil {
		log.Fatal(err)
	}
	writeCorpus("internal/replay/testdata/fuzz/FuzzReplayLog", [][]byte{
		marshal(golden),
		marshal([]byte(`{"magic":"vmsh-replay","v":1,"label":"empty","seed":0}` + "\n")),
		marshal([]byte(`{"magic":"vmsh-replay","v":2,"label":"future","seed":0}` + "\n")),
		marshal([]byte("not a log")),
		marshal([]byte{}),
	})

	// virtio: well-formed rings from the real driver side plus hostile bytes.
	allOnes := make([]byte, 256)
	for i := range allOnes {
		allOnes[i] = 0xff
	}
	writeCorpus("internal/virtio/testdata/fuzz/FuzzVirtqueueDescTable", [][]byte{
		marshal(byte(8), seedRing(8)),
		marshal(byte(16), seedRing(16)),
		marshal(byte(8), []byte{}),
		marshal(byte(4), allOnes),
	})

	// ksym: one genuinely built image per layout plus fragments.
	writeCorpus("internal/ksym/testdata/fuzz/FuzzKsymtabParse", [][]byte{
		marshal(ksymImage(ksym.LayoutAbsolute)),
		marshal(ksymImage(ksym.LayoutPosRel)),
		marshal(ksymImage(ksym.LayoutPosRelNS)),
		marshal([]byte("kernel_read\x00filp_open\x00")),
		marshal(make([]byte, 64)),
	})

	// lifecycle: a real snapshot, its truncation, a v1 header, junk and
	// snapshots whose config records fill every field.
	snap := snapshotSeed()
	writeCorpus("internal/lifecycle/testdata/fuzz/FuzzSnapshotRead", append([][]byte{
		marshal(snap),
		marshal(snap[:len(snap)/2]),
		marshal([]byte(`{"t":"header","magic":"vmsh-snap","v":1,"label":"old","vtime":1}` + "\n")),
		marshal([]byte("\x00\xffnot a snapshot{")),
	}, configSeeds()...))

	// simplefs: patch lists over a small built image.
	writeCorpus("internal/simplefs/testdata/fuzz/FuzzSimplefsImage", simplefsSeeds())

	fmt.Println("corpora written")
}
