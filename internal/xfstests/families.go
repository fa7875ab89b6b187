package xfstests

import (
	"fmt"

	"vmsh/internal/fserr"
	"vmsh/internal/guestos"
	"vmsh/internal/storage"
)

type addFn func(family, name string, fn func(t *T) error)
type addReqFn func(family, name, req string, fn func(t *T) error)

// addCreateTests: 40 tests of creation basics.
func addCreateTests(add addFn) {
	// 16 permission-mode variants.
	for _, mode := range []uint32{0o644, 0o600, 0o755, 0o400, 0o444, 0o222, 0o700, 0o777,
		0o640, 0o660, 0o555, 0o111, 0o751, 0o764, 0o440, 0o000} {
		mode := mode
		add("create", fmt.Sprintf("mode-%04o", mode), func(t *T) error {
			if err := writeAll(t, t.path("f"), nil); err != nil {
				return err
			}
			if err := t.P.Chmod(t.path("f"), mode); err != nil {
				return err
			}
			st, err := t.P.Stat(t.path("f"))
			if err != nil {
				return err
			}
			return expect(st.Mode&storage.ModePermMask == mode, "mode %04o != %04o", st.Mode&storage.ModePermMask, mode)
		})
	}
	// 12 name-shape variants.
	for i, name := range []string{"a", "ab", "file.txt", "with-dash", "with_underscore",
		"UPPER", "MiXeD.Case", "d.o.t.s", "123numeric", "trailing.", "x.tar.gz", "longish-name-with-many-characters-in-it"} {
		name := name
		add("create", fmt.Sprintf("name-%d", i), func(t *T) error {
			if err := writeAll(t, t.path(name), []byte(name)); err != nil {
				return err
			}
			return readBack(t, t.path(name), []byte(name))
		})
	}
	// 6 exclusive-create / existence semantics.
	add("create", "excl-conflict", func(t *T) error {
		if err := writeAll(t, t.path("f"), nil); err != nil {
			return err
		}
		_, err := t.P.Open(t.path("f"), guestos.OCreate|guestos.OExcl|guestos.OWronly, 0o644)
		return expectErr(err, fserr.ErrExists, "O_EXCL on existing")
	})
	add("create", "excl-fresh", func(t *T) error {
		f, err := t.P.Open(t.path("fresh"), guestos.OCreate|guestos.OExcl|guestos.OWronly, 0o644)
		if err != nil {
			return err
		}
		return f.Close()
	})
	add("create", "open-missing", func(t *T) error {
		_, err := t.P.Open(t.path("nope"), guestos.ORdonly, 0)
		return expectErr(err, fserr.ErrNotFound, "open missing")
	})
	add("create", "create-in-missing-dir", func(t *T) error {
		_, err := t.P.Open(t.path("no/such/dir/f"), guestos.OCreate|guestos.OWronly, 0o644)
		return expectErr(err, fserr.ErrNotFound, "create under missing dir")
	})
	add("create", "create-under-file", func(t *T) error {
		if err := writeAll(t, t.path("plain"), nil); err != nil {
			return err
		}
		_, err := t.P.Open(t.path("plain/child"), guestos.OCreate|guestos.OWronly, 0o644)
		return expect(err != nil, "created a child under a regular file")
	})
	add("create", "trunc-flag", func(t *T) error {
		if err := writeAll(t, t.path("f"), fill(1000, 1)); err != nil {
			return err
		}
		f, err := t.P.Open(t.path("f"), guestos.OWronly|guestos.OTrunc, 0)
		if err != nil {
			return err
		}
		f.Close()
		st, _ := t.P.Stat(t.path("f"))
		return expect(st.Size == 0, "O_TRUNC left size %d", st.Size)
	})
	// 6 initial-stat invariants.
	for i, check := range []struct {
		name string
		fn   func(st storage.FileInfo) error
	}{
		{"nlink-one", func(st storage.FileInfo) error { return expect(st.Nlink == 1, "nlink %d", st.Nlink) }},
		{"size-zero", func(st storage.FileInfo) error { return expect(st.Size == 0, "size %d", st.Size) }},
		{"is-regular", func(st storage.FileInfo) error {
			return expect(st.Mode&storage.ModeTypeMask == storage.ModeFile, "mode %#x", st.Mode)
		}},
		{"uid-propagated", func(st storage.FileInfo) error { return expect(st.UID == 0, "uid %d", st.UID) }},
		{"ino-nonzero", func(st storage.FileInfo) error { return expect(st.Ino != 0, "ino 0") }},
		{"gid-propagated", func(st storage.FileInfo) error { return expect(st.GID == 0, "gid %d", st.GID) }},
	} {
		check := check
		add("create", fmt.Sprintf("stat-%d-%s", i, check.name), func(t *T) error {
			if err := writeAll(t, t.path("f"), nil); err != nil {
				return err
			}
			st, err := t.P.Stat(t.path("f"))
			if err != nil {
				return err
			}
			return check.fn(st)
		})
	}
}

// addRWTests: 96 read/write pattern tests — an offset x size matrix
// crossing block and page boundaries, buffered and direct.
func addRWTests(add addFn) {
	offsets := []int64{0, 1, 511, 512, 4095, 4096, 4097, 8191}
	sizes := []int{1, 100, 512, 4096, 5000, 12288}
	for _, off := range offsets {
		for _, size := range sizes {
			off, size := off, size
			add("rw", fmt.Sprintf("buffered-off%d-len%d", off, size), func(t *T) error {
				data := fill(size, byte(off))
				f, err := t.P.Open(t.path("f"), guestos.OCreate|guestos.ORdwr, 0o644)
				if err != nil {
					return err
				}
				defer f.Close()
				if _, err := f.WriteAt(data, off); err != nil {
					return err
				}
				got := make([]byte, size)
				if _, err := f.ReadAt(got, off); err != nil {
					return err
				}
				for i := range got {
					if got[i] != data[i] {
						return fmt.Errorf("byte %d mismatch", i)
					}
				}
				st, _ := t.P.Stat(t.path("f"))
				return expect(st.Size == off+int64(size), "size %d want %d", st.Size, off+int64(size))
			})
		}
	}
	// 48 more: direct IO matrix (aligned only) + read-past-EOF + seek.
	dOffsets := []int64{0, 512, 4096, 65536}
	dSizes := []int{512, 4096, 65536}
	for _, off := range dOffsets {
		for _, size := range dSizes {
			off, size := off, size
			add("rw", fmt.Sprintf("direct-off%d-len%d", off, size), func(t *T) error {
				data := fill(size, byte(size))
				f, err := t.P.Open(t.path("d"), guestos.OCreate|guestos.ORdwr|guestos.ODirect, 0o644)
				if err != nil {
					return err
				}
				defer f.Close()
				if _, err := f.WriteAt(data, off); err != nil {
					return err
				}
				got := make([]byte, size)
				if _, err := f.ReadAt(got, off); err != nil {
					return err
				}
				for i := range got {
					if got[i] != data[i] {
						return fmt.Errorf("direct byte %d mismatch", i)
					}
				}
				return nil
			})
		}
	}
	// Mixed buffered/direct coherence (12), EOF handling (12),
	// append (6), seek semantics (6).
	for i := 0; i < 12; i++ {
		i := i
		add("rw", fmt.Sprintf("coherence-%d", i), func(t *T) error {
			data := fill(4096, byte(i))
			fb, err := t.P.Open(t.path("c"), guestos.OCreate|guestos.ORdwr, 0o644)
			if err != nil {
				return err
			}
			if _, err := fb.WriteAt(data, int64(i)*4096); err != nil {
				return err
			}
			if err := fb.Fsync(); err != nil { // flush so direct sees it
				return err
			}
			fd, err := t.P.Open(t.path("c"), guestos.ORdonly|guestos.ODirect, 0)
			if err != nil {
				return err
			}
			got := make([]byte, 4096)
			if _, err := fd.ReadAt(got, int64(i)*4096); err != nil {
				return err
			}
			for j := range got {
				if got[j] != data[j] {
					return fmt.Errorf("direct read sees stale byte %d", j)
				}
			}
			return nil
		})
	}
	for i, sz := range []int{0, 1, 100, 4095, 4096, 10000} {
		sz := sz
		add("rw", fmt.Sprintf("eof-read-%d", i), func(t *T) error {
			if err := writeAll(t, t.path("f"), fill(sz, 3)); err != nil {
				return err
			}
			f, err := t.P.Open(t.path("f"), guestos.ORdonly, 0)
			if err != nil {
				return err
			}
			buf := make([]byte, 64)
			n, err := f.ReadAt(buf, int64(sz))
			if err != nil {
				return err
			}
			return expect(n == 0, "read %d bytes past EOF", n)
		})
		add("rw", fmt.Sprintf("eof-short-%d", i), func(t *T) error {
			if err := writeAll(t, t.path("f"), fill(sz, 5)); err != nil {
				return err
			}
			f, err := t.P.Open(t.path("f"), guestos.ORdonly, 0)
			if err != nil {
				return err
			}
			buf := make([]byte, sz+64)
			n, err := f.ReadAt(buf, 0)
			if err != nil {
				return err
			}
			return expect(n == sz, "short read %d want %d", n, sz)
		})
	}
	for i := 0; i < 6; i++ {
		i := i
		add("rw", fmt.Sprintf("append-%d", i), func(t *T) error {
			f, err := t.P.Open(t.path("a"), guestos.OCreate|guestos.OWronly|guestos.OAppend, 0o644)
			if err != nil {
				return err
			}
			var want []byte
			for j := 0; j <= i; j++ {
				chunk := fill(100+j, byte(j))
				if _, err := f.Write(chunk); err != nil {
					return err
				}
				want = append(want, chunk...)
			}
			f.Close()
			return readBack(t, t.path("a"), want)
		})
	}
	for i, tc := range []struct {
		whence int
		off    int64
		want   int64
	}{{0, 100, 100}, {1, 50, 150}, {2, -10, 4086}, {0, 0, 0}, {2, 0, 4096}, {1, 0, 4096}} {
		tc := tc
		add("rw", fmt.Sprintf("seek-%d", i), func(t *T) error {
			if err := writeAll(t, t.path("s"), fill(4096, 9)); err != nil {
				return err
			}
			f, err := t.P.Open(t.path("s"), guestos.ORdwr, 0)
			if err != nil {
				return err
			}
			if tc.whence == 1 {
				if _, err := f.Seek(100, 0); err != nil {
					return err
				}
			}
			pos, err := f.Seek(tc.off, tc.whence)
			if err != nil {
				return err
			}
			want := tc.want
			if tc.whence == 1 {
				want = 100 + tc.off
			}
			return expect(pos == want, "seek pos %d want %d", pos, want)
		})
	}
}

// addSparseTests: 30 hole semantics tests.
func addSparseTests(add addFn) {
	holes := []int64{4096, 65536, 1 << 20, 3 << 20, 10 << 20}
	for i, hole := range holes {
		hole := hole
		add("sparse", fmt.Sprintf("hole-%d", i), func(t *T) error {
			f, err := t.P.Open(t.path("sp"), guestos.OCreate|guestos.ORdwr, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			tail := fill(512, 7)
			if _, err := f.WriteAt(tail, hole); err != nil {
				return err
			}
			// The hole reads as zeros.
			buf := make([]byte, 512)
			if _, err := f.ReadAt(buf, hole/2); err != nil {
				return err
			}
			for j, b := range buf {
				if b != 0 {
					return fmt.Errorf("hole byte %d = %#x", j, b)
				}
			}
			got := make([]byte, 512)
			if _, err := f.ReadAt(got, hole); err != nil {
				return err
			}
			for j := range got {
				if got[j] != tail[j] {
					return fmt.Errorf("tail byte %d mismatch", j)
				}
			}
			st, _ := t.P.Stat(t.path("sp"))
			return expect(st.Size == hole+512, "size %d", st.Size)
		})
		add("sparse", fmt.Sprintf("hole-fill-%d", i), func(t *T) error {
			f, err := t.P.Open(t.path("sp"), guestos.OCreate|guestos.ORdwr, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{1}, hole); err != nil {
				return err
			}
			// Filling part of the hole later must not disturb the
			// tail byte; keep the fill strictly inside the hole.
			fillLen := int(hole / 2)
			if fillLen > 4096 {
				fillLen = 4096
			}
			mid := fill(fillLen, 8)
			if _, err := f.WriteAt(mid, hole/4); err != nil {
				return err
			}
			got := make([]byte, fillLen)
			if _, err := f.ReadAt(got, hole/4); err != nil {
				return err
			}
			for j := range got {
				if got[j] != mid[j] {
					return fmt.Errorf("mid byte %d", j)
				}
			}
			one := make([]byte, 1)
			if _, err := f.ReadAt(one, hole); err != nil {
				return err
			}
			return expect(one[0] == 1, "tail clobbered")
		})
		add("sparse", fmt.Sprintf("hole-sync-%d", i), func(t *T) error {
			f, err := t.P.Open(t.path("sp"), guestos.OCreate|guestos.ORdwr, 0o644)
			if err != nil {
				return err
			}
			if _, err := f.WriteAt([]byte{9}, hole); err != nil {
				return err
			}
			if err := f.Fsync(); err != nil {
				return err
			}
			f.Close()
			got, err := t.P.ReadFile(t.path("sp"))
			if err != nil {
				return err
			}
			if int64(len(got)) != hole+1 {
				return fmt.Errorf("size after sync %d", len(got))
			}
			return expect(got[hole] == 9, "data after sync")
		})
	}
	// 15 sparse block accounting tests.
	for i := 0; i < 15; i++ {
		i := i
		add("sparse", fmt.Sprintf("accounting-%d", i), func(t *T) error {
			before, err := t.P.Statfs(t.Dir)
			if err != nil {
				return err
			}
			f, err := t.P.Open(t.path("sp"), guestos.OCreate|guestos.OWronly, 0o644)
			if err != nil {
				return err
			}
			if _, err := f.WriteAt([]byte{1}, int64(i+1)<<20); err != nil {
				return err
			}
			if err := f.Fsync(); err != nil {
				return err
			}
			f.Close()
			after, err := t.P.Statfs(t.Dir)
			if err != nil {
				return err
			}
			used := before.BlocksFree - after.BlocksFree
			return expect(used <= 8, "sparse file of %d MiB hole used %d blocks", i+1, used)
		})
	}
}

// addTruncateTests: 48 tests.
func addTruncateTests(add addFn) {
	sizes := []int64{0, 1, 511, 512, 4095, 4096, 4097, 100000}
	for _, from := range []int64{0, 4096, 100000} {
		for _, to := range sizes {
			from, to := from, to
			add("truncate", fmt.Sprintf("from%d-to%d", from, to), func(t *T) error {
				if err := writeAll(t, t.path("f"), fill(int(from), 0xAA)); err != nil {
					return err
				}
				if err := t.P.Truncate(t.path("f"), to); err != nil {
					return err
				}
				got, err := t.P.ReadFile(t.path("f"))
				if err != nil {
					return err
				}
				if int64(len(got)) != to {
					return fmt.Errorf("size %d want %d", len(got), to)
				}
				limit := from
				if to < from {
					limit = to
				}
				for i := int64(0); i < limit; i++ {
					if got[i] != 0xAA+byte(i*7) {
						return fmt.Errorf("kept byte %d corrupted", i)
					}
				}
				for i := limit; i < to; i++ {
					if got[i] != 0 {
						return fmt.Errorf("extended byte %d = %#x, want 0", i, got[i])
					}
				}
				return nil
			})
		}
	}
	// 24 grow-shrink-grow cycles exercising stale-tail exposure.
	for i := 0; i < 24; i++ {
		i := i
		add("truncate", fmt.Sprintf("cycle-%d", i), func(t *T) error {
			path := t.path("cyc")
			if err := writeAll(t, path, fill(4096, 0xFF)); err != nil {
				return err
			}
			cut := int64(i*150 + 10)
			if err := t.P.Truncate(path, cut); err != nil {
				return err
			}
			if err := t.P.Truncate(path, 4096); err != nil {
				return err
			}
			got, err := t.P.ReadFile(path)
			if err != nil {
				return err
			}
			for j := cut; j < 4096; j++ {
				if got[j] != 0 {
					return fmt.Errorf("stale byte %#x at %d after regrow past cut %d", got[j], j, cut)
				}
			}
			return nil
		})
	}
}

// addRenameTests: 40 tests.
func addRenameTests(add addFn) {
	add("rename", "simple", func(t *T) error {
		if err := writeAll(t, t.path("a"), []byte("x")); err != nil {
			return err
		}
		if err := t.P.Rename(t.path("a"), t.path("b")); err != nil {
			return err
		}
		if _, err := t.P.Stat(t.path("a")); err != fserr.ErrNotFound {
			return fmt.Errorf("source still present: %v", err)
		}
		return readBack(t, t.path("b"), []byte("x"))
	})
	add("rename", "replace-file", func(t *T) error {
		if err := writeAll(t, t.path("a"), []byte("A")); err != nil {
			return err
		}
		if err := writeAll(t, t.path("b"), []byte("B")); err != nil {
			return err
		}
		if err := t.P.Rename(t.path("a"), t.path("b")); err != nil {
			return err
		}
		return readBack(t, t.path("b"), []byte("A"))
	})
	add("rename", "onto-self", func(t *T) error {
		if err := writeAll(t, t.path("a"), []byte("same")); err != nil {
			return err
		}
		if err := t.P.Rename(t.path("a"), t.path("a")); err != nil {
			return err
		}
		return readBack(t, t.path("a"), []byte("same"))
	})
	add("rename", "missing-source", func(t *T) error {
		return expectErr(t.P.Rename(t.path("nope"), t.path("b")), fserr.ErrNotFound, "rename missing")
	})
	add("rename", "dir-simple", func(t *T) error {
		if err := t.P.Mkdir(t.path("d1"), 0o755); err != nil {
			return err
		}
		if err := writeAll(t, t.path("d1/inner"), []byte("i")); err != nil {
			return err
		}
		if err := t.P.Rename(t.path("d1"), t.path("d2")); err != nil {
			return err
		}
		return readBack(t, t.path("d2/inner"), []byte("i"))
	})
	add("rename", "dir-over-empty-dir", func(t *T) error {
		if err := t.P.Mkdir(t.path("src"), 0o755); err != nil {
			return err
		}
		if err := t.P.Mkdir(t.path("dst"), 0o755); err != nil {
			return err
		}
		return t.P.Rename(t.path("src"), t.path("dst"))
	})
	add("rename", "dir-over-nonempty-dir", func(t *T) error {
		if err := t.P.Mkdir(t.path("src"), 0o755); err != nil {
			return err
		}
		if err := t.P.Mkdir(t.path("dst"), 0o755); err != nil {
			return err
		}
		if err := writeAll(t, t.path("dst/keep"), nil); err != nil {
			return err
		}
		return expectErr(t.P.Rename(t.path("src"), t.path("dst")), fserr.ErrNotEmpty, "dir over nonempty")
	})
	add("rename", "file-over-dir", func(t *T) error {
		if err := writeAll(t, t.path("f"), nil); err != nil {
			return err
		}
		if err := t.P.Mkdir(t.path("d"), 0o755); err != nil {
			return err
		}
		return expectErr(t.P.Rename(t.path("f"), t.path("d")), fserr.ErrIsDir, "file over dir")
	})
	add("rename", "dir-over-file", func(t *T) error {
		if err := t.P.Mkdir(t.path("d"), 0o755); err != nil {
			return err
		}
		if err := writeAll(t, t.path("f"), nil); err != nil {
			return err
		}
		return expectErr(t.P.Rename(t.path("d"), t.path("f")), fserr.ErrNotDir, "dir over file")
	})
	add("rename", "cross-directory", func(t *T) error {
		if err := t.P.Mkdir(t.path("from"), 0o755); err != nil {
			return err
		}
		if err := t.P.Mkdir(t.path("to"), 0o755); err != nil {
			return err
		}
		if err := writeAll(t, t.path("from/f"), []byte("mv")); err != nil {
			return err
		}
		if err := t.P.Rename(t.path("from/f"), t.path("to/f")); err != nil {
			return err
		}
		return readBack(t, t.path("to/f"), []byte("mv"))
	})
	// 30 parameterised chains: rename sequences preserve content and
	// link state.
	for i := 0; i < 30; i++ {
		i := i
		add("rename", fmt.Sprintf("chain-%d", i), func(t *T) error {
			want := fill(200+i*13, byte(i))
			cur := t.path("n0")
			if err := writeAll(t, cur, want); err != nil {
				return err
			}
			for hop := 1; hop <= (i%5)+2; hop++ {
				next := t.path(fmt.Sprintf("n%d", hop))
				if err := t.P.Rename(cur, next); err != nil {
					return err
				}
				cur = next
			}
			if err := readBack(t, cur, want); err != nil {
				return err
			}
			st, err := t.P.Stat(cur)
			if err != nil {
				return err
			}
			return expect(st.Nlink == 1, "nlink %d after chain", st.Nlink)
		})
	}
}

// addLinkTests: 50 hard/symlink tests.
func addLinkTests(add addFn) {
	add("link", "hard-basic", func(t *T) error {
		if err := writeAll(t, t.path("a"), []byte("shared")); err != nil {
			return err
		}
		if err := t.P.Link(t.path("a"), t.path("b")); err != nil {
			return err
		}
		sa, _ := t.P.Stat(t.path("a"))
		sb, _ := t.P.Stat(t.path("b"))
		if sa.Ino != sb.Ino {
			return fmt.Errorf("different inodes %d %d", sa.Ino, sb.Ino)
		}
		return expect(sa.Nlink == 2, "nlink %d", sa.Nlink)
	})
	add("link", "hard-write-visible", func(t *T) error {
		if err := writeAll(t, t.path("a"), []byte("old")); err != nil {
			return err
		}
		if err := t.P.Link(t.path("a"), t.path("b")); err != nil {
			return err
		}
		if err := writeAll(t, t.path("a"), []byte("new")); err != nil {
			return err
		}
		return readBack(t, t.path("b"), []byte("new"))
	})
	add("link", "hard-unlink-one", func(t *T) error {
		if err := writeAll(t, t.path("a"), []byte("keep")); err != nil {
			return err
		}
		if err := t.P.Link(t.path("a"), t.path("b")); err != nil {
			return err
		}
		if err := t.P.Unlink(t.path("a")); err != nil {
			return err
		}
		return readBack(t, t.path("b"), []byte("keep"))
	})
	add("link", "hard-to-dir-rejected", func(t *T) error {
		if err := t.P.Mkdir(t.path("d"), 0o755); err != nil {
			return err
		}
		return expect(t.P.Link(t.path("d"), t.path("dl")) != nil, "hard link to dir accepted")
	})
	add("link", "hard-existing-target", func(t *T) error {
		if err := writeAll(t, t.path("a"), nil); err != nil {
			return err
		}
		if err := writeAll(t, t.path("b"), nil); err != nil {
			return err
		}
		return expectErr(t.P.Link(t.path("a"), t.path("b")), fserr.ErrExists, "link onto existing")
	})
	// 15 hard-link count matrices.
	for n := 2; n <= 16; n++ {
		n := n
		add("link", fmt.Sprintf("hard-count-%d", n), func(t *T) error {
			if err := writeAll(t, t.path("base"), []byte("x")); err != nil {
				return err
			}
			for i := 1; i < n; i++ {
				if err := t.P.Link(t.path("base"), t.path(fmt.Sprintf("l%d", i))); err != nil {
					return err
				}
			}
			st, _ := t.P.Stat(t.path("base"))
			if st.Nlink != uint32(n) {
				return fmt.Errorf("nlink %d want %d", st.Nlink, n)
			}
			for i := 1; i < n; i++ {
				if err := t.P.Unlink(t.path(fmt.Sprintf("l%d", i))); err != nil {
					return err
				}
			}
			st, _ = t.P.Stat(t.path("base"))
			return expect(st.Nlink == 1, "nlink %d after unlinks", st.Nlink)
		})
	}
	// Symlinks: 30 tests.
	add("link", "sym-basic", func(t *T) error {
		if err := writeAll(t, t.path("target"), []byte("via-sym")); err != nil {
			return err
		}
		if err := t.P.Symlink(t.path("target"), t.path("ln")); err != nil {
			return err
		}
		return readBack(t, t.path("ln"), []byte("via-sym"))
	})
	add("link", "sym-readlink", func(t *T) error {
		if err := t.P.Symlink("/absolute/elsewhere", t.path("ln")); err != nil {
			return err
		}
		got, err := t.P.Readlink(t.path("ln"))
		if err != nil {
			return err
		}
		return expect(got == "/absolute/elsewhere", "target %q", got)
	})
	add("link", "sym-dangling", func(t *T) error {
		if err := t.P.Symlink(t.path("gone"), t.path("ln")); err != nil {
			return err
		}
		_, err := t.P.Open(t.path("ln"), guestos.ORdonly, 0)
		return expectErr(err, fserr.ErrNotFound, "open dangling symlink")
	})
	add("link", "sym-lstat", func(t *T) error {
		if err := writeAll(t, t.path("t"), nil); err != nil {
			return err
		}
		if err := t.P.Symlink(t.path("t"), t.path("ln")); err != nil {
			return err
		}
		st, err := t.P.Lstat(t.path("ln"))
		if err != nil {
			return err
		}
		return expect(st.Mode&storage.ModeTypeMask == storage.ModeSymlink, "lstat mode %#x", st.Mode)
	})
	add("link", "sym-relative", func(t *T) error {
		if err := t.P.Mkdir(t.path("sub"), 0o755); err != nil {
			return err
		}
		if err := writeAll(t, t.path("sub/real"), []byte("rel")); err != nil {
			return err
		}
		if err := t.P.Symlink("real", t.path("sub/ln")); err != nil {
			return err
		}
		return readBack(t, t.path("sub/ln"), []byte("rel"))
	})
	add("link", "sym-loop", func(t *T) error {
		if err := t.P.Symlink(t.path("b"), t.path("a")); err != nil {
			return err
		}
		if err := t.P.Symlink(t.path("a"), t.path("b")); err != nil {
			return err
		}
		_, err := t.P.Open(t.path("a"), guestos.ORdonly, 0)
		return expectErr(err, fserr.ErrTooManyLinks, "symlink loop")
	})
	add("link", "sym-to-dir", func(t *T) error {
		if err := t.P.Mkdir(t.path("d"), 0o755); err != nil {
			return err
		}
		if err := writeAll(t, t.path("d/f"), []byte("through")); err != nil {
			return err
		}
		if err := t.P.Symlink(t.path("d"), t.path("ln")); err != nil {
			return err
		}
		return readBack(t, t.path("ln/f"), []byte("through"))
	})
	add("link", "sym-unlink-keeps-target", func(t *T) error {
		if err := writeAll(t, t.path("t"), []byte("stay")); err != nil {
			return err
		}
		if err := t.P.Symlink(t.path("t"), t.path("ln")); err != nil {
			return err
		}
		if err := t.P.Unlink(t.path("ln")); err != nil {
			return err
		}
		return readBack(t, t.path("t"), []byte("stay"))
	})
	// 22 target-length matrix.
	for i := 0; i < 22; i++ {
		i := i
		add("link", fmt.Sprintf("sym-target-len-%d", i), func(t *T) error {
			target := "/p"
			for j := 0; j < i*3; j++ {
				target += "x"
			}
			if err := t.P.Symlink(target, t.path("ln")); err != nil {
				return err
			}
			got, err := t.P.Readlink(t.path("ln"))
			if err != nil {
				return err
			}
			return expect(got == target, "len %d target mismatch", len(target))
		})
	}
}
