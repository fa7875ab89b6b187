package storage

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"vmsh/internal/faults"
	"vmsh/internal/fserr"
	"vmsh/internal/obs"
	"vmsh/internal/vclock"
)

func fillPage(seed byte) []byte {
	b := make([]byte, PageSize)
	for i := range b {
		b[i] = seed
	}
	return b
}

// --- block backends -----------------------------------------------------

func TestCowBlockIsolatesBase(t *testing.T) {
	base := NewMemBlock(4 * PageSize)
	seed := fillPage(0x11)
	if err := base.WriteAt(0, seed); err != nil {
		t.Fatalf("seed: %v", err)
	}
	cow := NewCowBlock(base)

	// Reads pass through.
	buf := make([]byte, PageSize)
	if err := cow.ReadAt(0, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, seed) {
		t.Error("pass-through read mismatch")
	}

	// A partial write copies up the page; the base never changes.
	if err := cow.WriteAt(100, []byte("dirty")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := base.ReadAt(0, buf); err != nil {
		t.Fatalf("base read: %v", err)
	}
	if !bytes.Equal(buf, seed) {
		t.Error("base mutated through cow")
	}
	if err := cow.ReadAt(0, buf); err != nil {
		t.Fatalf("cow read: %v", err)
	}
	want := append([]byte{}, seed...)
	copy(want[100:], "dirty")
	if !bytes.Equal(buf, want) {
		t.Error("cow read did not merge base and overlay")
	}
	if cow.DirtyPages() != 1 {
		t.Errorf("dirty pages: %d, want 1", cow.DirtyPages())
	}
}

func TestCasBlockDedupAndHoles(t *testing.T) {
	blk := NewCasBlock(16 * PageSize)
	page := fillPage(0x42)
	for i := int64(0); i < 8; i++ {
		if err := blk.WriteAt(i*PageSize, page); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if st := blk.DedupStats(); st.PhysicalPages != 1 || st.LogicalPages != 8 || st.SharedWrites != 7 {
		t.Errorf("dedup stats: %+v", st)
	}
	// The same content rewritten keeps one physical page and its
	// reference.
	for i := 0; i < 3; i++ {
		if err := blk.WriteAt(PageSize, page); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
	}
	if st := blk.DedupStats(); st.PhysicalPages != 1 || st.LogicalPages != 8 {
		t.Errorf("same-content rewrites: %+v", st)
	}
	// A page that diverges gets its own physical page.
	if err := blk.WriteAt(2*PageSize, fillPage(0x43)); err != nil {
		t.Fatalf("unique write: %v", err)
	}
	if st := blk.DedupStats(); st.PhysicalPages != 2 || st.LogicalPages != 8 {
		t.Errorf("after a unique write: %+v", st)
	}
	got := make([]byte, PageSize)
	if err := blk.ReadAt(PageSize, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, page) {
		t.Error("rewritten page content mismatch")
	}
	// All-zero pages are stored as holes, not content.
	if err := blk.WriteAt(0, make([]byte, PageSize)); err != nil {
		t.Fatalf("zero write: %v", err)
	}
	if st := blk.DedupStats(); st.LogicalPages != 7 {
		t.Errorf("zero page not stored as hole: %+v", st)
	}
	buf := make([]byte, PageSize)
	if err := blk.ReadAt(0, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Error("hole read not zero")
	}
	// Out-of-range access is rejected.
	if err := blk.ReadAt(16*PageSize, buf); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("out-of-range read: %v, want ErrInvalid", err)
	}
}

func TestOpenBlockSeedsFromBase(t *testing.T) {
	base := NewMemBlock(4 * PageSize)
	if err := base.WriteAt(PageSize, fillPage(9)); err != nil {
		t.Fatalf("seed: %v", err)
	}
	for _, name := range []string{"", "file", "memory", "cow", "cas", "remote"} {
		blk, err := OpenBlock(name, base, RemoteLink{})
		if err != nil {
			t.Fatalf("open %q: %v", name, err)
		}
		if blk.Size() != base.Size() {
			t.Errorf("%q: size %d, want %d", name, blk.Size(), base.Size())
		}
		buf := make([]byte, PageSize)
		if err := blk.ReadAt(PageSize, buf); err != nil {
			t.Fatalf("%q read: %v", name, err)
		}
		if !bytes.Equal(buf, fillPage(9)) {
			t.Errorf("%q did not seed from base image", name)
		}
	}
	for _, name := range []string{"", "file"} {
		if blk, _ := OpenBlock(name, base, RemoteLink{}); blk != BlockBackend(base) {
			t.Errorf("%q: got %T, want base served as given", name, blk)
		}
	}
	if _, err := OpenBlock("nvme-of", base, RemoteLink{}); !errors.Is(err, fserr.ErrNotSupported) {
		t.Errorf("unknown block backend: %v, want ErrNotSupported", err)
	}
}

// TestBlockStoresRejectOverflowingRange: an access whose end lies past
// math.MaxInt64 is out of range on every store — an error, never a
// panic and never a write that lands somewhere.
func TestBlockStoresRejectOverflowingRange(t *testing.T) {
	base := NewMemBlock(4 * PageSize)
	for _, name := range []string{"memory", "cow", "cas", "remote"} {
		blk, err := OpenBlock(name, base, RemoteLink{})
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		for _, off := range []int64{math.MaxInt64 / 512 * 512, math.MaxInt64 - 1} {
			if err := blk.WriteAt(off, fillPage(7)); !errors.Is(err, fserr.ErrInvalid) {
				t.Errorf("%s: write at %d: %v, want ErrInvalid", name, off, err)
			}
			if err := blk.ReadAt(off, make([]byte, PageSize)); !errors.Is(err, fserr.ErrInvalid) {
				t.Errorf("%s: read at %d: %v, want ErrInvalid", name, off, err)
			}
		}
		for off := int64(0); off < blk.Size(); off += PageSize {
			buf := make([]byte, PageSize)
			if err := blk.ReadAt(off, buf); err != nil || !bytes.Equal(buf, make([]byte, PageSize)) {
				t.Errorf("%s: page at %d changed (%v)", name, off, err)
			}
		}
	}
}

// --- remote backend -----------------------------------------------------

func TestRemoteChargesLink(t *testing.T) {
	clock := vclock.New()
	link := RemoteLink{Clock: clock, Lat: time.Millisecond, BW: 1e6} // 1 MB/s
	r, err := NewRemoteBlock(NewMemBlock(4*PageSize), link)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	payload := fillPage(1)
	if err := r.WriteAt(0, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	wantPut := time.Millisecond + vclock.Copy(PageSize, 1e6)
	if got := clock.Now(); got != wantPut {
		t.Errorf("put charge: %v, want %v", got, wantPut)
	}

	buf := make([]byte, PageSize)
	if err := r.ReadAt(0, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	wantGet := wantPut + time.Millisecond + vclock.Copy(PageSize, 1e6)
	if got := clock.Now(); got != wantGet {
		t.Errorf("get charge: %v, want %v", got, wantGet)
	}
	if !bytes.Equal(buf, payload) {
		t.Error("remote round-trip mismatch")
	}

	// Flush is a barrier: latency only, no payload.
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := clock.Now(); got != wantGet+time.Millisecond {
		t.Errorf("flush charge: %v, want %v", got, wantGet+time.Millisecond)
	}
}

func TestRemoteFaultInjection(t *testing.T) {
	clock := vclock.New()
	in := faults.NewInjector(faults.NewPlan(1, faults.Rule{
		Op: "remote:get", Nth: 1, Persistent: true,
	}), clock, obs.Track{})
	r, err := NewRemoteBlock(NewMemBlock(4*PageSize), RemoteLink{Clock: clock, Faults: in})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := r.WriteAt(0, fillPage(3)); err != nil {
		t.Fatalf("write (puts unaffected): %v", err)
	}
	buf := make([]byte, PageSize)
	if err := r.ReadAt(0, buf); !faults.IsFault(err) {
		t.Errorf("read under remote:get fault: %v, want injected fault", err)
	}
	// The flush class is independent of get.
	if err := r.Flush(); err != nil {
		t.Errorf("flush under remote:get fault: %v", err)
	}
}

type recordTap struct{ ops []faults.Op }

func (r *recordTap) Crossing(c faults.Crossing) { r.ops = append(r.ops, c.Op) }

func TestRemoteCrossingsObserved(t *testing.T) {
	plane := faults.NewInjector(nil, vclock.New(), obs.Track{})
	tap := &recordTap{}
	plane.SetTap(tap)
	r, err := NewRemoteBlock(NewMemBlock(4*PageSize), RemoteLink{Faults: plane})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := r.WriteAt(0, fillPage(5)); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, PageSize)
	if err := r.ReadAt(0, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want := []faults.Op{faults.OpRemotePut, faults.OpRemoteGet, faults.OpRemoteFlush}
	if len(tap.ops) != len(want) {
		t.Fatalf("crossings: %v, want %v", tap.ops, want)
	}
	for i, op := range want {
		if tap.ops[i] != op {
			t.Errorf("crossing %d: %s, want %s", i, tap.ops[i], op)
		}
	}
}

// --- MemFS internals ----------------------------------------------------

func TestMemFSInodeAndBlockLimits(t *testing.T) {
	fs := NewMemFS(MemOptions{Blocks: 4, Inodes: 3})
	root := mustRoot(t, fs)
	// Root consumed one inode; two more fit.
	if _, err := root.Create("a", 0o644, 0, 0); err != nil {
		t.Fatalf("create a: %v", err)
	}
	if _, err := root.Create("b", 0o644, 0, 0); err != nil {
		t.Fatalf("create b: %v", err)
	}
	if _, err := root.Create("c", 0o644, 0, 0); !errors.Is(err, fserr.ErrNoSpace) {
		t.Errorf("create past inode cap: %v, want ErrNoSpace", err)
	}
	n, _ := root.Lookup("a")
	// 4-block budget: a 5-page write must fail all-or-nothing.
	if _, err := n.WriteAt(make([]byte, 5*PageSize), 0); !errors.Is(err, fserr.ErrNoSpace) {
		t.Errorf("write past block cap: %v, want ErrNoSpace", err)
	}
	if got := n.Stat().Size; got != 0 {
		t.Errorf("failed write left size %d, want 0 (all-or-nothing)", got)
	}
	if _, err := n.WriteAt(make([]byte, 4*PageSize), 0); err != nil {
		t.Errorf("write at exactly the cap: %v", err)
	}
}

func mustRoot(t *testing.T, fs FS) Node {
	t.Helper()
	root, err := fs.Root()
	if err != nil {
		t.Fatal(err)
	}
	return root
}
