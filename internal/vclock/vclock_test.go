package vclock

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v, want 0", c.Now())
	}
	c.Advance(5 * time.Microsecond)
	c.Advance(7 * time.Nanosecond)
	if got := c.Now(); got != 5*time.Microsecond+7*time.Nanosecond {
		t.Fatalf("Now() = %v", got)
	}
}

func TestClockNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	New().Advance(-1)
}

func TestClockSince(t *testing.T) {
	c := New()
	c.Advance(time.Millisecond)
	start := c.Now()
	c.Advance(42 * time.Microsecond)
	if got := c.Since(start); got != 42*time.Microsecond {
		t.Fatalf("Since = %v", got)
	}
}

func TestClockMonotonic(t *testing.T) {
	c := New()
	f := func(steps []uint16) bool {
		prev := c.Now()
		for _, s := range steps {
			c.Advance(time.Duration(s))
			now := c.Now()
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCopyCost(t *testing.T) {
	if Copy(0, 1e9) != 0 {
		t.Fatal("zero bytes should be free")
	}
	if Copy(100, 0) != 0 {
		t.Fatal("zero bandwidth should not divide by zero")
	}
	// 1 GiB at 1 GiB/s is one second.
	got := Copy(1<<30, float64(1<<30))
	if got != time.Second {
		t.Fatalf("Copy(1GiB @ 1GiB/s) = %v, want 1s", got)
	}
}

func TestDeviceTimeBandwidthFloor(t *testing.T) {
	// Large transfer: bandwidth dominates regardless of queue depth.
	lat := 10 * time.Microsecond
	n := 1 << 20
	bw := 1e9
	got := DeviceTime(n, lat, bw, 128*1024, 32)
	want := Copy(n, bw)
	if got != want {
		t.Fatalf("DeviceTime = %v, want bandwidth floor %v", got, want)
	}
}

func TestDeviceTimeLatencyDominates(t *testing.T) {
	// Tiny transfer at qd=1: latency dominates.
	got := DeviceTime(512, 10*time.Microsecond, 10e9, 128*1024, 1)
	if got != 10*time.Microsecond {
		t.Fatalf("DeviceTime = %v, want 10us", got)
	}
	// qd=2 halves the effective latency.
	got = DeviceTime(512, 10*time.Microsecond, 10e9, 128*1024, 2)
	if got != 5*time.Microsecond {
		t.Fatalf("DeviceTime qd=2 = %v, want 5us", got)
	}
}

func TestDeviceTimeSegmentSplit(t *testing.T) {
	// 256KiB with 128KiB segments = 2 commands worth of latency at qd=1.
	got := DeviceTime(256*1024, time.Millisecond, 1e12, 128*1024, 1)
	if got != 2*time.Millisecond {
		t.Fatalf("DeviceTime = %v, want 2ms", got)
	}
}

func TestDefaultCostsSane(t *testing.T) {
	c := Default()
	if c.VMExit <= 0 || c.PtraceStop <= 0 || c.NVMeReadBW <= 0 {
		t.Fatal("default costs contain zeros")
	}
	if c.PtraceStop < c.Syscall {
		t.Fatal("a ptrace stop must cost more than a syscall")
	}
	if c.ProcessVMBW >= c.MemcpyBW {
		t.Fatal("cross-address-space copy must be slower than memcpy")
	}
}

func TestValidateAcceptsDefault(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsZeroDuration(t *testing.T) {
	c := Default()
	c.NetSwitchHop = 0
	err := c.Validate()
	if err == nil {
		t.Fatal("zero NetSwitchHop accepted")
	}
	if !strings.Contains(err.Error(), "NetSwitchHop") {
		t.Fatalf("error does not name the field: %v", err)
	}
}

func TestValidateRejectsNegativeBandwidth(t *testing.T) {
	c := Default()
	c.NetLinkBW = -1
	if c.Validate() == nil {
		t.Fatal("negative NetLinkBW accepted")
	}
}

func TestValidateRejectsZeroCount(t *testing.T) {
	c := Default()
	c.NVMeQueueMax = 0
	if c.Validate() == nil {
		t.Fatal("zero NVMeQueueMax accepted")
	}
}

func TestValidateCoversEveryNumericField(t *testing.T) {
	// Zeroing any single numeric field must be caught — guards against
	// new cost constants being added without validation coverage.
	proto := reflect.ValueOf(*Default())
	for i := 0; i < proto.NumField(); i++ {
		f := proto.Type().Field(i)
		switch f.Type.Kind() {
		case reflect.Int64, reflect.Float64, reflect.Int:
		default:
			continue
		}
		c := Default()
		reflect.ValueOf(c).Elem().Field(i).SetZero()
		if c.Validate() == nil {
			t.Fatalf("zero %s accepted", f.Name)
		}
	}
}

func TestMustValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustValidate did not panic")
		}
	}()
	c := Default()
	c.VMExit = -time.Microsecond
	c.MustValidate()
}

func TestObserveSkipsZeroAndStopsOnRemove(t *testing.T) {
	c := New()
	var total time.Duration
	remove := c.Observe(func(d time.Duration) { total += d })
	c.Advance(10)
	c.Advance(0) // zero advances must not fire the observer
	c.Advance(5)
	if total != 15 {
		t.Fatalf("observer saw %v, want 15ns", total)
	}
	if c.Now() != 15 {
		t.Fatalf("clock at %v, want 15ns", c.Now())
	}
	remove()
	c.Advance(7)
	if total != 15 {
		t.Fatalf("observer fired after removal: %v", total)
	}
}

func TestObserveComposes(t *testing.T) {
	c := New()
	var a, b time.Duration
	removeA := c.Observe(func(d time.Duration) { a += d })
	removeB := c.Observe(func(d time.Duration) { b += d })
	c.Advance(10)
	if a != 10 || b != 10 {
		t.Fatalf("observers saw a=%v b=%v, want 10ns each", a, b)
	}
	// Removing one observer must not disturb the others.
	removeA()
	c.Advance(5)
	if a != 10 || b != 15 {
		t.Fatalf("after removeA: a=%v b=%v", a, b)
	}
	// Remove is idempotent.
	removeA()
	removeB()
	c.Advance(3)
	if a != 10 || b != 15 {
		t.Fatalf("after removal: a=%v b=%v", a, b)
	}
}

func TestObserveNilIsNoOp(t *testing.T) {
	c := New()
	remove := c.Observe(nil)
	c.Advance(1)
	remove()
	if c.Now() != 1 {
		t.Fatalf("clock at %v, want 1ns", c.Now())
	}
}
