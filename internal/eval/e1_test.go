package eval

import (
	"sync"
	"testing"

	"vmsh/internal/ledger"
)

// firstXfstests is the first run of the classic trio.
// TestE1Xfstests checks it and TestE1Deterministic compares a rerun
// against it, so tier-1 runs the trio at most twice.
var firstXfstests = sync.OnceValues(RunXfstests)

func TestE1Xfstests(t *testing.T) {
	r, err := firstXfstests()
	if err != nil {
		t.Fatal(err)
	}
	// §6.1: all runnable tests pass natively.
	if r.Native.Failed != 0 {
		t.Fatalf("native failures: %v", r.Native.Failures)
	}
	// The same three quota-reporting tests fail on both virtio paths.
	if r.QemuBlk.Failed != 3 {
		t.Fatalf("qemu-blk failed %d, want 3: %v", r.QemuBlk.Failed, r.QemuBlk.Failures)
	}
	if r.VmshBlk.Failed != 3 {
		t.Fatalf("vmsh-blk failed %d, want 3: %v", r.VmshBlk.Failed, r.VmshBlk.Failures)
	}
	for _, f := range append(r.QemuBlk.Failures, r.VmshBlk.Failures...) {
		if !containsQuota(f) {
			t.Fatalf("non-quota failure: %s", f)
		}
	}
	// Feature-gated tests skip everywhere.
	if r.Native.Skipped == 0 || r.Native.Skipped != r.QemuBlk.Skipped {
		t.Fatalf("skip counts: native %d qemu %d", r.Native.Skipped, r.QemuBlk.Skipped)
	}
	if r.Native.Total != 619 {
		t.Fatalf("suite size %d", r.Native.Total)
	}
}

func containsQuota(s string) bool {
	for i := 0; i+5 <= len(s); i++ {
		if s[i:i+5] == "quota" {
			return true
		}
	}
	return false
}

// TestE1Deterministic: a rerun gives identical E1 rows, classic trio
// and storage backends alike.
func TestE1Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full E1 runs")
	}
	rows := func(classic *XfstestsResults, err error) []ledger.Row {
		if err != nil {
			t.Fatal(err)
		}
		backends, err := RunXfstestsBackends()
		if err != nil {
			t.Fatal(err)
		}
		return XfstestsRows(append(classic.Results(), backends...))
	}
	sameRows(t, rows(firstXfstests()), rows(RunXfstests()))
}
