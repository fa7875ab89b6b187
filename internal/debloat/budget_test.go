//go:build linux

package debloat

import (
	"fmt"
	"os"
	"syscall"
	"testing"
)

// TestMain fails the package when its tests peak over 1 GiB of RSS
// (Linux reports ru_maxrss in KiB). Built one image at a time and
// booted on sparse host files, the catalog peaks near 0.4 GiB (0.7 GiB
// under -race); building the whole ~3 GB catalog before tracing it
// goes over.
func TestMain(m *testing.M) {
	code := m.Run()
	var ru syscall.Rusage
	err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	if err != nil || ru.Maxrss > 1<<20 || testing.Verbose() {
		fmt.Printf("debloat: peak RSS %d MiB, budget 1024 MiB (%v)\n", ru.Maxrss>>10, err)
	}
	if err != nil || ru.Maxrss > 1<<20 {
		code = 1
	}
	os.Exit(code)
}
