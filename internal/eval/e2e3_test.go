package eval

import (
	"strings"
	"testing"
)

func TestE2HypervisorMatrix(t *testing.T) {
	rows := RunHypervisorMatrix()
	if len(rows) != 5 {
		t.Fatalf("%d rows, Table 1 has 5 hypervisors", len(rows))
	}
	byName := map[string]GeneralityRow{}
	for _, r := range rows {
		byName[r.Target] = r
		t.Logf("%-36s supported=%v %s", r.Target, r.Supported, r.Detail)
	}
	for _, want := range []string{"qemu", "kvmtool", "firecracker (seccomp off)", "crosvm"} {
		if !byName[want].Supported {
			t.Errorf("%s should be supported: %s", want, byName[want].Detail)
		}
	}
	chv := byName["cloud-hypervisor"]
	if chv.Supported {
		t.Error("cloud-hypervisor should be unsupported (Table 1)")
	}
	if !strings.Contains(chv.Detail, "MSI-X") {
		t.Errorf("wrong failure mode: %s", chv.Detail)
	}
}

func TestE3KernelMatrix(t *testing.T) {
	rows := RunKernelMatrix()
	if len(rows) != 6 {
		t.Fatalf("%d rows, Table 1 lists 6 LTS kernels", len(rows))
	}
	for _, r := range rows {
		if !r.Supported {
			t.Errorf("%s unsupported: %s", r.Target, r.Detail)
		}
	}
}

// TestMemslotGrid: D4's top-of-memory memslot collides with the RAM of
// no personality at any size, so every grid point attaches.
func TestMemslotGrid(t *testing.T) {
	for _, r := range RunMemslotGrid() {
		if !r.Supported || r.Attach <= 0 {
			t.Errorf("%s: %s (attach %v)", r.Target, r.Detail, r.Attach)
		}
	}
}

func TestExtensionMatrix(t *testing.T) {
	rows := RunExtensionMatrix()
	for _, r := range rows {
		t.Logf("%-48s supported=%v %s", r.Target, r.Supported, r.Detail)
		if !r.Supported {
			t.Errorf("extension %s failed: %s", r.Target, r.Detail)
		}
	}
}
