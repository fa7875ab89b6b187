package core

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"vmsh/internal/hypervisor"
)

// heapAllocBytes returns the bytes allocated on the heap so far. The
// GC first flushes every P's allocation cache into the runtime's
// counters, so the figure includes the caller's latest allocations.
func heapAllocBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// execAllocBytes runs one Exec and returns the bytes it allocated.
func execAllocBytes(t *testing.T, sess *Session, cmd string) uint64 {
	t.Helper()
	before := heapAllocBytes()
	if out, err := sess.Exec(cmd); err != nil {
		t.Fatalf("%s: %v (out=%q)", cmd, err, out)
	}
	return heapAllocBytes() - before
}

// TestExecCostFlatOverSession: an Exec copies only the output it
// produced, so its cost does not grow with the console history.
func TestExecCostFlatOverSession(t *testing.T) {
	h, inst := launch(t, hypervisor.QEMU, "5.10")
	sess := attach(t, h, inst, Options{})
	// Each Exec adds its 400-byte output line to the history, so after
	// 500 of them a copy of the history dwarfs the first Exec's cost.
	cmd := "echo " + strings.Repeat("0123456789", 40)
	first := execAllocBytes(t, sess, cmd)
	for i := 0; i < 500; i++ {
		if _, err := sess.Exec(cmd); err != nil {
			t.Fatal(err)
		}
	}
	later := execAllocBytes(t, sess, cmd)
	t.Logf("first Exec %d B, Exec 502 %d B, history %d B", first, later, len(sess.Output()))
	if later > 2*first {
		t.Fatalf("Exec 502 allocated %d B, more than twice the first Exec's %d B", later, first)
	}
}
