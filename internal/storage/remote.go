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
// identifies the object ("i<ino>/p<page>" for file pages); payload is
// digested for the tap, never retained.
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

// RemoteFS is the simulated remote backend: an in-memory filesystem
// whose file data plane lives behind a RemoteLink. Metadata operations
// (lookup, create, readdir, stat) are served from the local metadata
// cache — the gateway model — while every data page read/write and
// every sync crosses the link with remote:get / remote:put /
// remote:flush charging and fault semantics.
type RemoteFS struct {
	*MemFS
	link RemoteLink
}

// NewRemoteFS builds a remote-backed filesystem over link.
func NewRemoteFS(opt MemOptions, link RemoteLink) *RemoteFS {
	return &RemoteFS{MemFS: NewMemFS(opt), link: link}
}

// Root implements FS, wrapping nodes so data ops cross the link.
func (r *RemoteFS) Root() (Node, error) {
	root, err := r.MemFS.Root()
	if err != nil {
		return nil, err
	}
	return &remoteNode{Node: root, fs: r}, nil
}

// Sync implements FS: a flush barrier across the link.
func (r *RemoteFS) Sync() error {
	if err := r.link.xfer(faults.OpRemoteFlush, "all", nil); err != nil {
		return err
	}
	return r.MemFS.Sync()
}

// remoteNode decorates a memNode: namespace ops re-wrap their results,
// data ops charge the link first.
type remoteNode struct {
	Node
	fs *RemoteFS
}

func (n *remoteNode) wrap(inner Node, err error) (Node, error) {
	if err != nil {
		return nil, err
	}
	return &remoteNode{Node: inner, fs: n.fs}, nil
}

func (n *remoteNode) Lookup(name string) (Node, error) {
	return n.wrap(n.Node.Lookup(name))
}

func (n *remoteNode) Create(name string, perm, uid, gid uint32) (Node, error) {
	return n.wrap(n.Node.Create(name, perm, uid, gid))
}

func (n *remoteNode) Mkdir(name string, perm, uid, gid uint32) (Node, error) {
	return n.wrap(n.Node.Mkdir(name, perm, uid, gid))
}

func (n *remoteNode) Symlink(name, target string, uid, gid uint32) (Node, error) {
	return n.wrap(n.Node.Symlink(name, target, uid, gid))
}

func (n *remoteNode) Link(target Node, name string) error {
	if t, ok := target.(*remoteNode); ok {
		target = t.Node
	}
	return n.Node.Link(target, name)
}

func (n *remoteNode) Rename(oldName string, dst Node, newName string) error {
	if d, ok := dst.(*remoteNode); ok {
		dst = d.Node
	}
	return n.Node.Rename(oldName, dst, newName)
}

// objKey names the remote object chunk backing a page range.
func (n *remoteNode) objKey(off int64) string {
	return fmt.Sprintf("i%d/p%d", n.Node.ID(), off/PageSize)
}

func (n *remoteNode) ReadAt(buf []byte, off int64) (int, error) {
	nr, err := n.Node.ReadAt(buf, off)
	if err != nil {
		return nr, err
	}
	if err := n.fs.link.xfer(faults.OpRemoteGet, n.objKey(off), buf[:nr]); err != nil {
		return 0, err
	}
	return nr, nil
}

func (n *remoteNode) WriteAt(buf []byte, off int64) (int, error) {
	if err := n.fs.link.xfer(faults.OpRemotePut, n.objKey(off), buf); err != nil {
		return 0, err
	}
	return n.Node.WriteAt(buf, off)
}
