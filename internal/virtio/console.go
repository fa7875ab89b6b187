package virtio

import (
	"vmsh/internal/mem"
)

// Console queue indices (virtio-console): 0 = receiveq (host->guest),
// 1 = transmitq (guest->host).
const (
	ConsoleRxQ = 0
	ConsoleTxQ = 1
)

// ConsoleDevice is the device side of the VMSH console. Host input is
// pushed into guest-posted rx buffers; guest output is collected from
// the tx queue and handed to Output.
type ConsoleDevice struct {
	Dev *MMIODev
	// Output receives guest->host bytes.
	Output func([]byte)
	// SignalIRQ delivers interrupts to the guest.
	SignalIRQ func()

	// Batch groups the tx (guest output) queue's crossings as
	// BlkDevice.Batch does. The rx fill groups per chain whatever
	// Batch says: every command a session types crosses it, and a
	// trial that batched it moved E9's fleet digest and failed E11's
	// record-verify check.
	Batch bool

	rx rxQueue // host->guest bytes waiting for rx buffers
}

// NewConsoleDevice wires a console device at base.
func NewConsoleDevice(base mem.GPA, m mem.PhysIO) *ConsoleDevice {
	c := &ConsoleDevice{}
	d := NewMMIODev(base, DeviceIDConsole, 0, []int{64, 64}, m)
	d.OnNotify = func(q int) {
		if q == ConsoleTxQ {
			serviceQueue(c.Dev, ConsoleTxQ, c.Batch, c.serveTx, c.SignalIRQ)
		} else {
			c.fillRx()
		}
	}
	c.Dev = d
	return c
}

// MMIO forwards to the register block.
func (c *ConsoleDevice) MMIO(gpa mem.GPA, size int, write bool, value uint64) uint64 {
	return c.Dev.MMIO(gpa, size, write, value)
}

// SendToGuest queues host input; it is delivered into rx buffers the
// guest driver posted, followed by an interrupt. Input longer than one
// buffer continues in the next.
func (c *ConsoleDevice) SendToGuest(data []byte) {
	c.rx.push(append([]byte(nil), data...))
	c.fillRx()
}

func (c *ConsoleDevice) fillRx() {
	c.rx.fill(c.Dev, ConsoleRxQ, false, true, c.SignalIRQ)
}

// serveTx gathers every segment of the pass's output chains, then
// delivers the bytes to Output in publication order.
func (c *ConsoleDevice) serveTx(x crossings, chains []Chain) (func(), error) {
	budget := x.budget()
	for _, chain := range chains {
		for _, d := range chain.Elems {
			if err := budget.hold(d); err != nil {
				return nil, err
			}
		}
	}
	var gather []mem.Vec
	for i, chain := range chains {
		for _, d := range chain.Elems {
			gather = append(gather, mem.Vec{GPA: d.Addr, Buf: make([]byte, d.Len)})
			chains[i].Used += d.Len
		}
	}
	if err := x.read(gather); err != nil {
		return nil, err
	}
	if c.Output != nil {
		for _, v := range gather {
			c.Output(v.Buf)
		}
	}
	return nil, nil
}
