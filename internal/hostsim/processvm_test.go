package hostsim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"vmsh/internal/mem"
	"vmsh/internal/vclock"
)

// vmPair is a target with one mapped page and a privileged caller.
func vmPair(t *testing.T) (*Host, *Process, *Process, mem.HVA) {
	t.Helper()
	h := NewHost()
	target := h.NewProcess("qemu", user(1000))
	const hva = mem.HVA(0x10000)
	if _, err := target.AS.MapPhys(hva, mem.NewPhys(0, 0x4000), "ram"); err != nil {
		t.Fatal(err)
	}
	caller := h.NewProcess("vmsh", root())
	return h, caller, target, hva
}

// TestProcessVMVectoredCharge: a vectored call pays exactly one
// syscall + one ProcessVMBase + bandwidth over the *total* byte count,
// regardless of segment count — the whole point of process_vm_readv.
// The scalar wrapper is charge-identical to a one-segment vector.
func TestProcessVMVectoredCharge(t *testing.T) {
	h, caller, target, hva := vmPair(t)
	c := h.Costs
	iovs := make([]IoVec, 16)
	total := 0
	for i := range iovs {
		iovs[i] = IoVec{HVA: hva + mem.HVA(i*256), Buf: make([]byte, 100)}
		total += 100
	}

	before := h.Clock.Now()
	if err := h.ProcessVMReadv(caller, target.PID, iovs); err != nil {
		t.Fatal(err)
	}
	want := c.Syscall + c.ProcessVMBase + vclock.Copy(total, c.ProcessVMBW)
	if got := h.Clock.Now() - before; got != want {
		t.Fatalf("vectored read charged %v, want %v", got, want)
	}

	// 16 scalar calls for the same bytes: 16x the fixed costs.
	before = h.Clock.Now()
	for _, v := range iovs {
		if err := h.ProcessVMRead(caller, target.PID, v.HVA, v.Buf); err != nil {
			t.Fatal(err)
		}
	}
	wantScalar := 16 * (c.Syscall + c.ProcessVMBase + vclock.Copy(100, c.ProcessVMBW))
	if got := h.Clock.Now() - before; got != wantScalar {
		t.Fatalf("scalar loop charged %v, want %v", got, wantScalar)
	}
	if wantScalar <= want {
		t.Fatal("scalar loop not more expensive than one vectored call")
	}

	// Writev symmetry.
	before = h.Clock.Now()
	if err := h.ProcessVMWritev(caller, target.PID, iovs); err != nil {
		t.Fatal(err)
	}
	if got := h.Clock.Now() - before; got != want {
		t.Fatalf("vectored write charged %v, want %v", got, want)
	}
}

// TestProcessVMVectoredFaultOrder: like the real syscall, a faulting
// segment aborts the call but earlier segments have transferred.
func TestProcessVMVectoredFaultOrder(t *testing.T) {
	h, caller, target, hva := vmPair(t)
	payload := []byte("landed")
	err := h.ProcessVMWritev(caller, target.PID, []IoVec{
		{HVA: hva, Buf: payload},
		{HVA: 0xdead0000, Buf: []byte("faults")},
	})
	if err == nil {
		t.Fatal("write through unmapped segment succeeded")
	}
	got := make([]byte, len(payload))
	if err := target.ReadMem(hva, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("first segment did not transfer before the fault")
	}
}

// TestProcessVMVectoredPermission: the access check is per call, and
// an unprivileged caller with a different UID is refused.
func TestProcessVMVectoredPermission(t *testing.T) {
	h, _, target, hva := vmPair(t)
	stranger := h.NewProcess("stranger", user(2000))
	err := h.ProcessVMReadv(stranger, target.PID, []IoVec{{HVA: hva, Buf: make([]byte, 8)}})
	if err == nil {
		t.Fatal("cross-uid read without CAP_SYS_PTRACE succeeded")
	}
}

// TestProcessVMForgetsExitedTarget: the host remembers the process its
// last crossing resolved, but a process that exits is never crossed
// into again, however recently it was.
func TestProcessVMForgetsExitedTarget(t *testing.T) {
	h, caller, target, hva := vmPair(t)
	buf := make([]byte, 8)
	if err := h.ProcessVMRead(caller, target.PID, hva, buf); err != nil {
		t.Fatal(err)
	}
	h.Exit(target)
	if err := h.ProcessVMRead(caller, target.PID, hva, buf); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("read from an exited process: %v, want ErrNoEnt", err)
	}
}

// TestProcessVMPermissionPerCrossing: the access check runs on every
// crossing, so a caller that drops CAP_SYS_PTRACE between two crossings
// into another UID's process is refused the second.
func TestProcessVMPermissionPerCrossing(t *testing.T) {
	h, caller, target, hva := vmPair(t)
	buf := make([]byte, 8)
	if err := h.ProcessVMRead(caller, target.PID, hva, buf); err != nil {
		t.Fatal(err)
	}
	caller.DropCapability(CapSysPtrace)
	if caller.Creds.Has(CapSysPtrace) || !caller.Creds.Has(CapBPF) {
		t.Fatalf("DropCapability left caps %b", caller.Creds.Caps)
	}
	if err := h.ProcessVMRead(caller, target.PID, hva, buf); !errors.Is(err, ErrPerm) {
		t.Fatalf("read after dropping CAP_SYS_PTRACE: %v, want ErrPerm", err)
	}
}

// TestProcessVMChargeAcrossSizes: crossings of changing sizes charge
// exactly what the cost model says for each, whatever size came
// before.
func TestProcessVMChargeAcrossSizes(t *testing.T) {
	h, caller, target, hva := vmPair(t)
	c := h.Costs
	vectors := [][]IoVec{
		{{HVA: hva, Buf: make([]byte, 8)}},
		{{HVA: hva, Buf: make([]byte, 4096)}},
		{{HVA: hva, Buf: make([]byte, 8)}},
		{{HVA: hva, Buf: make([]byte, 3)}},
		{{HVA: hva, Buf: make([]byte, 8)}, {HVA: hva + 0x1000, Buf: make([]byte, 100)}},
		{{HVA: hva, Buf: make([]byte, 8)}},
	}
	var want time.Duration
	for _, iovs := range vectors {
		want += c.Syscall + c.ProcessVMBase + vclock.Copy(IoVecTotal(iovs), c.ProcessVMBW)
	}
	before := h.Clock.Now()
	for _, iovs := range vectors {
		if err := h.ProcessVMReadv(caller, target.PID, iovs); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Clock.Now() - before; got != want {
		t.Fatalf("crossings charged %v, want %v", got, want)
	}
}
