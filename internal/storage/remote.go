package storage

import (
	"fmt"
	"time"

	"vmsh/internal/faults"
	"vmsh/internal/vclock"
)

// RemoteLink models the network path to a simulated remote object
// store (S3/minio-flavoured: GET/PUT of object chunks plus a flush
// barrier). Every operation charges a round-trip latency and payload
// serialisation time to the virtual clock — exactly the netsim link
// model — and passes each operation through the host's crossing plane
// under the remote:* crossing classes, so remote sessions fault,
// record and replay like any other host crossing. All fields are
// optional; the zero value is a free, fault-less, unobserved link.
type RemoteLink struct {
	Clock  *vclock.Clock
	Lat    time.Duration // per-op round-trip latency
	BW     float64       // payload bandwidth, bytes/sec
	Faults *faults.Injector
}

// NewRemoteLink wires a link into a host's planes: it charges clock
// the cost model's RemoteOpLat and RemoteLinkBW and passes every
// operation through the crossing plane.
func NewRemoteLink(clock *vclock.Clock, costs *vclock.Costs, plane *faults.Injector) RemoteLink {
	return RemoteLink{Clock: clock, Lat: costs.RemoteOpLat, BW: costs.RemoteLinkBW, Faults: plane}
}

// xfer performs one remote operation: charge latency + bandwidth for
// n payload bytes, check the crossing plane, observe the crossing. key
// identifies the object ("b<page>" for a block page, "all" for a
// flush); payload is digested for the tap, never retained.
func (l *RemoteLink) xfer(op faults.Op, key string, payload []byte) error {
	if l.Clock != nil {
		l.Clock.Advance(l.Lat)
		if len(payload) > 0 && l.BW > 0 {
			l.Clock.Advance(vclock.Copy(len(payload), l.BW))
		}
	}
	err := l.Faults.Check(op)
	if l.Faults.Observing() {
		args := faults.NewDigest().Str(string(op)).Str(key).U64(uint64(len(payload)))
		result := faults.NewDigest()
		if err == nil {
			result = result.Bytes(payload)
		}
		l.Faults.Observe(op, args, result, err)
	}
	if err != nil {
		return fmt.Errorf("remote %s %s: %w", op, key, err)
	}
	return nil
}
