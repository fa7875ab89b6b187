package guestos

import (
	"encoding/binary"
	"fmt"
	"strings"

	"vmsh/internal/fserr"
	"vmsh/internal/guestlib"
	"vmsh/internal/mem"
	"vmsh/internal/virtio"
)

// kfunc is the Go binding behind an exported kernel symbol. Errors
// abort the library program; the errno-style code lands in the sync
// page for the host to read.
type kfunc func(ctx *libCtx, args []uint64) (uint64, error)

// DescMagic is the magic field of the device descriptor structs the
// library passes to platform_device_register.
const DescMagic = 0x76646576 // 'vdev'

// DeviceDesc is the decoded platform device descriptor.
type DeviceDesc struct {
	Base mem.GPA
	IRQ  uint32
}

// decodeDeviceDesc parses the descriptor struct at gva according to
// this kernel's struct layout version. These are the structures that
// "have to be conditioned depending on the kernel version" (§6.2):
//
//	v1 (< 5.4):  magic u32 @0, mmio_base u64 @4 (packed), irq u32 @12
//	v2 (>= 5.4): magic u32 @0, struct_ver u32 @4, mmio_base u64 @8,
//	             irq u32 @16
//
// A blob encoded for the wrong version fails the magic/version check
// or yields a garbage MMIO base, so the attach aborts.
func (k *Kernel) decodeDeviceDesc(ctx *libCtx, gva mem.GVA) (DeviceDesc, error) {
	if k.Version.DescStructV2() {
		raw := make([]byte, 20)
		if err := ctx.vio.ReadVirt(gva, raw); err != nil {
			return DeviceDesc{}, fmt.Errorf("EFAULT: %w", err)
		}
		if binary.LittleEndian.Uint32(raw[0:]) != DescMagic {
			return DeviceDesc{}, fmt.Errorf("EINVAL: bad descriptor magic")
		}
		if binary.LittleEndian.Uint32(raw[4:]) != 2 {
			return DeviceDesc{}, fmt.Errorf("EINVAL: descriptor struct version mismatch")
		}
		return DeviceDesc{
			Base: mem.GPA(binary.LittleEndian.Uint64(raw[8:])),
			IRQ:  binary.LittleEndian.Uint32(raw[16:]),
		}, nil
	}
	raw := make([]byte, 16)
	if err := ctx.vio.ReadVirt(gva, raw); err != nil {
		return DeviceDesc{}, fmt.Errorf("EFAULT: %w", err)
	}
	if binary.LittleEndian.Uint32(raw[0:]) != DescMagic {
		return DeviceDesc{}, fmt.Errorf("EINVAL: bad descriptor magic")
	}
	return DeviceDesc{
		Base: mem.GPA(binary.LittleEndian.Uint64(raw[4:])),
		IRQ:  binary.LittleEndian.Uint32(raw[12:]),
	}, nil
}

// EncodeDeviceDesc builds the descriptor bytes for a given struct
// version (used by the VMSH loader when assembling the blob).
func EncodeDeviceDesc(v2 bool, base mem.GPA, irq uint32) []byte {
	if v2 {
		raw := make([]byte, 20)
		binary.LittleEndian.PutUint32(raw[0:], DescMagic)
		binary.LittleEndian.PutUint32(raw[4:], 2)
		binary.LittleEndian.PutUint64(raw[8:], uint64(base))
		binary.LittleEndian.PutUint32(raw[16:], irq)
		return raw
	}
	raw := make([]byte, 16)
	binary.LittleEndian.PutUint32(raw[0:], DescMagic)
	binary.LittleEndian.PutUint64(raw[4:], uint64(base))
	binary.LittleEndian.PutUint32(raw[12:], irq)
	return raw
}

// readCString reads a NUL-terminated string from guest virtual memory.
func (ctx *libCtx) readCString(gva mem.GVA) (string, error) {
	var out []byte
	buf := make([]byte, 64)
	for len(out) < 4096 {
		if err := ctx.vio.ReadVirt(gva+mem.GVA(len(out)), buf); err != nil {
			return "", fmt.Errorf("EFAULT: %w", err)
		}
		for _, b := range buf {
			if b == 0 {
				return string(out), nil
			}
			out = append(out, b)
		}
	}
	return "", fmt.Errorf("EINVAL: unterminated string at %#x", gva)
}

// bindKernelFuncs attaches Go implementations to the exported symbol
// addresses. Only the 12 functions the VMSH library uses have
// bindings; calling any other export traps.
func (k *Kernel) bindKernelFuncs() {
	bind := func(name string, fn kfunc) {
		gva, ok := k.symbols[name]
		if !ok {
			panic("guestos: binding unknown symbol " + name)
		}
		k.funcs[gva] = fn
	}

	bind("printk", func(ctx *libCtx, args []uint64) (uint64, error) {
		s, err := ctx.readCString(mem.GVA(args[0]))
		if err != nil {
			return 0, err
		}
		k.Printk("%s", s)
		return uint64(len(s)), nil
	})

	bind("platform_device_register", func(ctx *libCtx, args []uint64) (uint64, error) {
		desc, err := k.decodeDeviceDesc(ctx, mem.GVA(args[0]))
		if err != nil {
			return 0, err
		}
		return k.registerVMSHDevice(desc)
	})

	bind("platform_device_unregister", func(ctx *libCtx, args []uint64) (uint64, error) {
		return 0, k.unregisterVMSHDevice(args[0])
	})

	bind("filp_open", func(ctx *libCtx, args []uint64) (uint64, error) {
		path, err := ctx.readCString(mem.GVA(args[0]))
		if err != nil {
			return 0, err
		}
		f, err := k.InitProc.Open(path, int(args[1]), uint32(args[2]))
		if err != nil {
			return 0, fmt.Errorf("filp_open %s: %w", path, err)
		}
		h := k.nextKFile
		k.nextKFile++
		k.kfiles[h] = f
		return h, nil
	})

	bind("filp_close", func(ctx *libCtx, args []uint64) (uint64, error) {
		if _, ok := k.kfiles[args[0]]; !ok {
			return 0, fserr.ErrBadHandle
		}
		delete(k.kfiles, args[0])
		return 0, nil
	})

	bind("kernel_read", func(ctx *libCtx, args []uint64) (uint64, error) {
		f, ok := k.kfiles[args[0]]
		if !ok {
			return 0, fserr.ErrBadHandle
		}
		if k.Version.NewFileIOSig() {
			// (file, buf, count, *pos)
			bufGVA, count, posPtr := mem.GVA(args[1]), args[2], mem.GVA(args[3])
			var posRaw [8]byte
			if err := ctx.vio.ReadVirt(posPtr, posRaw[:]); err != nil {
				return 0, fmt.Errorf("EFAULT reading pos: %w", err)
			}
			pos := int64(binary.LittleEndian.Uint64(posRaw[:]))
			data := make([]byte, count)
			n, err := f.ReadAt(data, pos)
			if err != nil {
				return 0, err
			}
			if err := ctx.vio.WriteVirt(bufGVA, data[:n]); err != nil {
				return 0, fmt.Errorf("EFAULT: %w", err)
			}
			binary.LittleEndian.PutUint64(posRaw[:], uint64(pos+int64(n)))
			if err := ctx.vio.WriteVirt(posPtr, posRaw[:]); err != nil {
				return 0, fmt.Errorf("EFAULT: %w", err)
			}
			return uint64(n), nil
		}
		// old signature: (file, pos, buf, count)
		pos, bufGVA, count := int64(args[1]), mem.GVA(args[2]), args[3]
		data := make([]byte, count)
		n, err := f.ReadAt(data, pos)
		if err != nil {
			return 0, err
		}
		if err := ctx.vio.WriteVirt(bufGVA, data[:n]); err != nil {
			return 0, fmt.Errorf("EFAULT: %w", err)
		}
		return uint64(n), nil
	})

	bind("kernel_write", func(ctx *libCtx, args []uint64) (uint64, error) {
		f, ok := k.kfiles[args[0]]
		if !ok {
			return 0, fserr.ErrBadHandle
		}
		if k.Version.NewFileIOSig() {
			bufGVA, count, posPtr := mem.GVA(args[1]), args[2], mem.GVA(args[3])
			var posRaw [8]byte
			if err := ctx.vio.ReadVirt(posPtr, posRaw[:]); err != nil {
				return 0, fmt.Errorf("EFAULT reading pos: %w", err)
			}
			pos := int64(binary.LittleEndian.Uint64(posRaw[:]))
			data := make([]byte, count)
			if err := ctx.vio.ReadVirt(bufGVA, data); err != nil {
				return 0, fmt.Errorf("EFAULT: %w", err)
			}
			n, err := f.WriteAt(data, pos)
			if err != nil {
				return 0, err
			}
			binary.LittleEndian.PutUint64(posRaw[:], uint64(pos+int64(n)))
			if err := ctx.vio.WriteVirt(posPtr, posRaw[:]); err != nil {
				return 0, fmt.Errorf("EFAULT: %w", err)
			}
			return uint64(n), nil
		}
		pos, bufGVA, count := int64(args[1]), mem.GVA(args[2]), args[3]
		data := make([]byte, count)
		if err := ctx.vio.ReadVirt(bufGVA, data); err != nil {
			return 0, fmt.Errorf("EFAULT: %w", err)
		}
		n, err := f.WriteAt(data, pos)
		return uint64(n), err
	})

	bind("kthread_create_on_node", func(ctx *libCtx, args []uint64) (uint64, error) {
		name, err := ctx.readCString(mem.GVA(args[1]))
		if err != nil {
			return 0, err
		}
		id := k.nextThread
		k.nextThread++
		k.kthreads[id] = &kthread{id: id, name: name, entry: args[0], blobGVA: ctx.blobGVA}
		return id, nil
	})

	bind("wake_up_process", func(ctx *libCtx, args []uint64) (uint64, error) {
		t, ok := k.kthreads[args[0]]
		if !ok {
			return 0, fmt.Errorf("ESRCH: no kthread %d", args[0])
		}
		if t.started || t.stopped {
			return 0, nil
		}
		t.started = true
		// The thread body is a sub-program inside the same blob, but
		// it runs in its own context: its do_exit must not terminate
		// the caller's program.
		sub := &libCtx{k: ctx.k, blobGVA: ctx.blobGVA, hdr: ctx.hdr, vio: ctx.vio}
		return 0, sub.runProgram(t.entry)
	})

	bind("kthread_stop", func(ctx *libCtx, args []uint64) (uint64, error) {
		t, ok := k.kthreads[args[0]]
		if !ok {
			return 0, fmt.Errorf("ESRCH: no kthread %d", args[0])
		}
		t.stopped = true
		return 0, nil
	})

	bind("do_exit", func(ctx *libCtx, args []uint64) (uint64, error) {
		ctx.exited = true
		return 0, nil
	})

	bind("call_usermodehelper", func(ctx *libCtx, args []uint64) (uint64, error) {
		path, err := ctx.readCString(mem.GVA(args[0]))
		if err != nil {
			return 0, err
		}
		argStr := ""
		if args[1] != 0 {
			if argStr, err = ctx.readCString(mem.GVA(args[1])); err != nil {
				return 0, err
			}
		}
		return k.execGuestProgram(path, argStr)
	})
}

// registerVMSHDevice probes a virtio-mmio device the library pointed
// at and wires it into the guest (block device name or console TTY).
func (k *Kernel) registerVMSHDevice(desc DeviceDesc) (uint64, error) {
	env := &virtio.Env{Bus: k.VM, Mem: k.mem, Alloc: k, Clock: k.Clock(), Costs: k.Costs(),
		// Driver-side track: request spans begin here at avail-publish
		// and end when the device (a different track) publishes the
		// completion into the used ring.
		Trace: k.Host.Trace.Track("drv:" + k.VM.Name)}
	id := uint32(k.VM.MMIORead(desc.Base+virtio.RegDeviceID, 4))
	dev := &vmshDevice{handle: uint64(len(k.vmshDevs) + 1), base: desc.Base, gsi: desc.IRQ}
	switch id {
	case virtio.DeviceIDBlock:
		drv, err := virtio.ProbeBlk(env, desc.Base)
		if err != nil {
			return 0, fmt.Errorf("EIO: virtio-blk probe at %#x: %w", desc.Base, err)
		}
		name := fmt.Sprintf("vmshblk%d", countKind(k.vmshDevs, "blk"))
		k.RegisterBlockDev(name, drv)
		k.RegisterIRQ(desc.IRQ, drv.HandleIRQ)
		dev.kind, dev.blk = "blk", drv
		k.Printk("vmsh: virtio-blk device %s at %#x irq %d", name, desc.Base, desc.IRQ)
	case virtio.DeviceIDConsole:
		drv, err := virtio.ProbeConsole(env, desc.Base)
		if err != nil {
			return 0, fmt.Errorf("EIO: virtio-console probe at %#x: %w", desc.Base, err)
		}
		tty := k.NewTTY("hvc-vmsh", func(b []byte) error { return drv.Write(b) })
		drv.OnInput = func(b []byte) {
			tty.InputFromHost(b)
		}
		k.RegisterIRQ(desc.IRQ, func() {
			drv.HandleIRQ()
			k.checkVMSHControl()
		})
		dev.kind, dev.tty = "console", tty
		k.Printk("vmsh: virtio-console at %#x irq %d -> tty %s", desc.Base, desc.IRQ, tty.Name)
	case virtio.DeviceIDNet:
		drv, err := virtio.ProbeNet(env, desc.Base)
		if err != nil {
			return 0, fmt.Errorf("EIO: virtio-net probe at %#x: %w", desc.Base, err)
		}
		name := fmt.Sprintf("vmsh%d", countKind(k.vmshDevs, "net"))
		ifc, err := k.RegisterIface(name, drv)
		if err != nil {
			return 0, fmt.Errorf("EIO: registering iface %s: %w", name, err)
		}
		k.RegisterIRQ(desc.IRQ, drv.HandleIRQ)
		dev.kind, dev.iface = "net", ifc
		k.Printk("vmsh: virtio-net device %s at %#x irq %d", name, desc.Base, desc.IRQ)
	default:
		return 0, fmt.Errorf("ENODEV: no virtio device at %#x (id %d)", desc.Base, id)
	}
	k.vmshDevs = append(k.vmshDevs, dev)
	return dev.handle, nil
}

func countKind(devs []*vmshDevice, kind string) int {
	n := 0
	for _, d := range devs {
		if d.kind == kind {
			n++
		}
	}
	return n
}

// unregisterVMSHDevice tears one device down (detach path).
func (k *Kernel) unregisterVMSHDevice(handle uint64) error {
	for _, d := range k.vmshDevs {
		if d.handle == handle {
			delete(k.irqHandlers, d.gsi)
			if d.kind == "blk" {
				for name, bd := range k.blockDevs {
					if bd == d.blk {
						delete(k.blockDevs, name)
					}
				}
			}
			if d.tty != nil {
				delete(k.ttys, d.tty.Name)
			}
			if d.iface != nil {
				delete(k.ifaces, d.iface.Name)
				_ = k.InitProc.Unlink("/dev/net/" + d.iface.Name)
			}
			return nil
		}
	}
	return fmt.Errorf("ENODEV: no vmsh device handle %d", handle)
}

// --- guest userspace program registry ----------------------------------

// GuestProgramFn is the behaviour of a guest userspace executable; the
// overlay package registers "vmsh-guest" here.
type GuestProgramFn func(k *Kernel, p *Proc, options string) error

var guestProgs = make(map[string]GuestProgramFn)

// RegisterGuestProgram installs a named program implementation. Call
// it from an init function: the table is read without a lock by every
// kernel, on whichever engine worker drives it.
func RegisterGuestProgram(name string, fn GuestProgramFn) { guestProgs[name] = fn }

// execGuestProgram validates and runs the executable at path. The file
// must carry the ExeMagic header followed by "name\x00options".
func (k *Kernel) execGuestProgram(path, arg string) (uint64, error) {
	data, err := k.InitProc.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("ENOENT: exec %s: %w", path, err)
	}
	if len(data) < len(guestlib.ExeMagic) || string(data[:len(guestlib.ExeMagic)]) != guestlib.ExeMagic {
		return 0, fmt.Errorf("ENOEXEC: %s has no exe magic", path)
	}
	payload := string(data[len(guestlib.ExeMagic):])
	name, options, _ := strings.Cut(payload, "\x00")
	fn := guestProgs[name]
	if fn == nil {
		return 0, fmt.Errorf("ENOEXEC: unknown guest program %q", name)
	}
	proc := k.Spawn(k.InitProc, name)
	proc.Container = "vmsh-overlay"
	if arg != "" {
		proc.Env["VMSH_ARG"] = arg
	}
	if err := fn(k, proc, options); err != nil {
		proc.Exit()
		return 0, fmt.Errorf("EIO: guest program %s: %w", name, err)
	}
	return uint64(proc.PID), nil
}
