package virtio

// This file holds the one service loop all hosted devices (blk, net
// tx, console tx) drain their queues through, in either of two modes:
//
//   - legacy: pop, serve, publish and interrupt per chain — the exact
//     crossing pattern and cost sequence of the pre-fast-path device
//     loops, kept selectable so the paper-reproduction experiments
//     (Figures 5/6) retain their shape.
//   - batched: snapshot the avail ring once, serve every pending
//     chain, publish all completions with one vectored write and
//     raise a single coalesced interrupt for the whole pass.
//
// Batching is legal despite concurrent guest mutation of the rings
// because the avail index is snapshotted once per pass (PopBatch):
// chains published after the snapshot are picked up by the guest's
// next doorbell, exactly as a real device sees a stale index until
// the next notification.

import "vmsh/internal/faults"

// serveFn handles one popped chain. It returns the used-ring length,
// an optional side effect to run only after the completion has been
// published (e.g. handing a tx frame to the switch), and ok=false to
// abort the service pass — the same give-up-on-error behaviour the
// pre-batching loops had.
type serveFn func(dq *DeviceQueue, c *Chain) (used uint32, after func(), ok bool)

// serveBatchFn handles a whole burst at once (the blk two-phase
// gather/scatter path). Contract as serveFn, element-wise: used[i]
// belongs to chains[i].
type serveBatchFn func(dq *DeviceQueue, chains []*Chain) (used []uint32, after func(), ok bool)

// serviceQueue drains queue q of dev. serve must be non-nil;
// serveBatch is optional and only consulted in batched mode. Each
// drain is one "vq:service" span on the device's track, tagged with
// the queue index and the number of chains completed.
func serviceQueue(dev *MMIODev, q int, batch bool, serve serveFn, serveBatch serveBatchFn, signal func()) {
	if !dev.queueLive(q) {
		return
	}
	sp := dev.Trace.Span("vq", "service")
	served := serviceQueueInner(dev, q, batch, serve, serveBatch, signal)
	sp.End2("queue", int64(q), "chains", served)
	// One record/replay crossing per service pass, mirroring the
	// granularity at which the fault plane intercepts the data path.
	if dev.Faults.Observing() && dev.TapOp != "" {
		dev.Faults.Observe(dev.TapOp,
			faults.NewDigest().U64(uint64(dev.ID)).U64(uint64(q)),
			faults.NewDigest().U64(uint64(served)), nil)
	}
}

func serviceQueueInner(dev *MMIODev, q int, batch bool, serve serveFn, serveBatch serveBatchFn, signal func()) int64 {
	dq := dev.DeviceQueue(q)
	served := int64(0)
	if !batch {
		for {
			chain, ok, err := dq.Pop()
			if err != nil || !ok {
				return served
			}
			used, after, sok := serve(dq, chain)
			if !sok {
				return served
			}
			if err := dq.PushUsed(chain.Head, used); err != nil {
				return served
			}
			served++
			if after != nil {
				after()
			}
			dev.RaiseInterrupt()
			if signal != nil {
				signal()
			}
		}
	}

	delivered := false
	for {
		chains, err := dq.PopBatch(dq.Size)
		if err != nil || len(chains) == 0 {
			break
		}
		var used []uint32
		var after func()
		ok := false
		if serveBatch != nil {
			used, after, ok = serveBatch(dq, chains)
		} else {
			used = make([]uint32, len(chains))
			var afters []func()
			ok = true
			for i, c := range chains {
				u, a, sok := serve(dq, c)
				if !sok {
					ok = false
					break
				}
				used[i] = u
				if a != nil {
					afters = append(afters, a)
				}
			}
			if ok && len(afters) > 0 {
				after = func() {
					for _, a := range afters {
						a()
					}
				}
			}
		}
		if !ok {
			break
		}
		entries := make([]UsedElem, len(chains))
		for i, c := range chains {
			entries[i] = UsedElem{ID: uint32(c.Head), Len: used[i]}
		}
		if err := dq.PushUsedBatch(entries); err != nil {
			break
		}
		served += int64(len(chains))
		if after != nil {
			after()
		}
		delivered = true
	}
	if delivered {
		dev.RaiseInterrupt()
		if signal != nil {
			signal()
		}
	}
	return served
}
