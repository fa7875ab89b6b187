// Snapshot file format: whole-VM state on the replay log's framing
// (internal/chainlog). The header carries the label and capture vtime;
// every later line is a typed record ("t" field) with its own link of
// the checksum chain, and the "footer" record ends the stream. Encoding
// the same Snapshot twice yields byte-identical output. The config
// record and the page, block and simage records, nearly every byte, are
// written by hand in exactly the form json.Marshal gives a snapLine,
// and read back only in that form; the other records go through
// encoding/json.
package lifecycle

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"vmsh/internal/arch"
	"vmsh/internal/chainlog"
	"vmsh/internal/fsimage"
	"vmsh/internal/hostsim"
	"vmsh/internal/hypervisor"
	"vmsh/internal/kvm"
	"vmsh/internal/virtio"
)

// Magic identifies a snapshot stream.
const Magic = "vmsh-snap"

// Version is the current snapshot format version. Version 1 sealed a
// whole-line chain in the footer only; version 2 moved onto the
// per-line chainlog framing, and v1 files are refused as version skew.
const Version = 2

// Snapshot is a decoded whole-VM snapshot: enough to reconstruct the
// VM byte-for-byte on any simulated host. RAM and disk content are
// stored sparsely — only non-zero 4 KiB units — because Restore
// rebuilds onto zeroed backing.
type Snapshot struct {
	Label string
	// VTime is the source host's virtual time at capture.
	VTime int64
	// Config is the launch configuration (defaults applied); Restore
	// relaunches from it, which with the same Seed reproduces the
	// boot-time state deterministically.
	Config hypervisor.Config
	VCPUs  []VCPUState
	// Cursors carries the Go-side virtqueue cursors of every
	// hypervisor-owned disk; the ring bytes themselves are in Pages.
	Cursors []DiskCursors
	// Pages are the non-zero RAM pages per memslot.
	Pages []PageRecord
	// Disks are the sparse disk image contents.
	Disks []DiskImage
	// Session, when non-nil, describes the quiesced vmsh session that
	// was attached at capture; Restore re-attaches an equivalent one.
	Session *SessionState
	// RAMHashes is one FNV-64a hash per memslot (slot-number order),
	// cross-checked after Restore.
	RAMHashes []uint64
}

// VCPUState is one vCPU's register file.
type VCPUState struct {
	Index int          `json:"i"`
	Regs  hostsim.Regs `json:"regs"`
	Sregs kvm.Sregs    `json:"sregs"`
}

// DiskCursors pairs a disk's driver- and device-side queue cursors.
type DiskCursors struct {
	Disk string             `json:"disk"`
	Drv  virtio.CursorState `json:"drv"`
	Dev  virtio.CursorState `json:"dev"`
}

// PageRecord is one non-zero 4 KiB RAM page.
type PageRecord struct {
	Slot  uint32 `json:"slot"`
	Index uint64 `json:"idx"`
	Data  []byte `json:"data"`
}

// BlockRecord is one non-zero 4 KiB disk block.
type BlockRecord struct {
	Index uint64 `json:"idx"`
	Data  []byte `json:"data"`
}

// DiskImage is one disk's sparse content.
type DiskImage struct {
	Name   string
	Size   int64
	Blocks []BlockRecord
}

// SessionState describes a quiesced vmsh session: what it served and
// how it was attached, plus the overlay image's content so Restore can
// materialise it on the target host.
type SessionState struct {
	ImageName string
	ImageSize int64
	Storage   string
	Trap      int
	Blocks    []BlockRecord
}

// snapLine is the union wire record; "t" selects the populated arm.
type snapLine struct {
	T string `json:"t"`

	// config
	Config *hypervisor.Config `json:"config,omitempty"`

	// vcpu
	VCPU *VCPUState `json:"vcpu,omitempty"`

	// cursors
	Cursors *DiskCursors `json:"cursors,omitempty"`

	// page / block / simage payload
	Slot  uint32 `json:"slot,omitempty"`
	Index uint64 `json:"idx,omitempty"`
	Data  []byte `json:"data,omitempty"`

	// disk (block container) / session
	Disk    string `json:"disk,omitempty"`
	Size    int64  `json:"size,omitempty"`
	Image   string `json:"image,omitempty"`
	Storage string `json:"storage,omitempty"`
	Trap    int    `json:"trap,omitempty"`

	// footer
	RAMHashes []uint64 `json:"ram,omitempty"`
}

// appendPayload renders a page, block or simage record up to
// (excluding) its "ck" member, as json.Marshal renders the snapLine:
// each member left out when zero, a slot only on a page and a disk only
// on a block.
func appendPayload(b []byte, l *snapLine) []byte {
	b = append(append(append(b, `{"t":"`...), l.T...), '"')
	if l.T == "page" && l.Slot != 0 {
		b = strconv.AppendUint(append(b, `,"slot":`...), uint64(l.Slot), 10)
	}
	if l.Index != 0 {
		b = strconv.AppendUint(append(b, `,"idx":`...), l.Index, 10)
	}
	if len(l.Data) > 0 {
		b = append(base64.StdEncoding.AppendEncode(append(b, `,"data":"`...), l.Data), '"')
	}
	if l.T == "block" && l.Disk != "" {
		b = chainlog.AppendString(append(b, `,"disk":`...), l.Disk)
	}
	return b
}

// payloadType reports which of page, block and simage a line opens, or
// "".
func payloadType(line []byte) string {
	switch {
	case bytes.HasPrefix(line, []byte(`{"t":"page",`)):
		return "page"
	case bytes.HasPrefix(line, []byte(`{"t":"block",`)):
		return "block"
	case bytes.HasPrefix(line, []byte(`{"t":"simage",`)):
		return "simage"
	}
	return ""
}

// parsePayload is appendPayload's inverse: it takes a record only in
// exactly the form appendPayload writes.
func parsePayload(elem int, line []byte, t string, l *snapLine) error {
	s := chainlog.NewScanner(chainlog.Prefix(line))
	l.T = t
	s.Lit(`{"t":"`)
	s.Lit(t)
	s.Lit(`"`)
	if t == "page" && s.Opt(`,"slot":`) {
		l.Slot = s.Uint32()
		s.Want(l.Slot != 0)
	}
	if s.Opt(`,"idx":`) {
		l.Index = s.Uint64()
		s.Want(l.Index != 0)
	}
	if s.Opt(`,"data":`) {
		l.Data = s.Base64()
		s.Want(len(l.Data) > 0)
	}
	if t == "block" && s.Opt(`,"disk":`) {
		l.Disk = string(s.Str())
		s.Want(l.Disk != "")
	}
	return s.Done(elem)
}

// configStart opens the config record.
const configStart = `{"t":"config","config":`

// appendConfig renders the config record up to (excluding) its "ck"
// member, as json.Marshal renders its snapLine: Config's fields in
// declaration order under their Go names, the RootFS manifest's paths
// sorted, file data in base64, and null for a nil manifest, disk list
// or file data. The manifest's file bytes make it the largest record.
func appendConfig(b []byte, c *hypervisor.Config) []byte {
	b = strconv.AppendInt(append(b, configStart+`{"Kind":`...), int64(c.Kind), 10)
	b = chainlog.AppendString(append(b, `,"Name":`...), c.Name)
	b = strconv.AppendInt(append(b, `,"Arch":`...), int64(c.Arch), 10)
	b = chainlog.AppendString(append(b, `,"KernelVersion":`...), c.KernelVersion)
	b = strconv.AppendUint(append(b, `,"RAMSize":`...), c.RAMSize, 10)
	b = strconv.AppendInt(append(b, `,"VCPUs":`...), int64(c.VCPUs), 10)
	b = strconv.AppendInt(append(b, `,"Seed":`...), c.Seed, 10)
	b = append(b, `,"RootFS":`...)
	if c.RootFS == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '{')
		for i, path := range c.RootFS.Paths() {
			if i > 0 {
				b = append(b, ',')
			}
			e := c.RootFS[path]
			b = strconv.AppendUint(append(chainlog.AppendString(b, path), `:{"Mode":`...), uint64(e.Mode), 10)
			b = strconv.AppendUint(append(b, `,"UID":`...), uint64(e.UID), 10)
			b = strconv.AppendUint(append(b, `,"GID":`...), uint64(e.GID), 10)
			b = append(b, `,"Data":`...)
			if e.Data == nil {
				b = append(b, "null"...)
			} else {
				b = append(base64.StdEncoding.AppendEncode(append(b, '"'), e.Data), '"')
			}
			b = append(chainlog.AppendString(append(b, `,"Symlink":`...), e.Symlink), '}')
		}
		b = append(b, '}')
	}
	b = strconv.AppendInt(append(b, `,"RootImageSize":`...), c.RootImageSize, 10)
	b = append(b, `,"ExtraDisks":`...)
	if c.ExtraDisks == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, d := range c.ExtraDisks {
			if i > 0 {
				b = append(b, ',')
			}
			b = chainlog.AppendString(append(b, `{"GuestName":`...), d.GuestName)
			b = strconv.AppendInt(append(b, `,"Size":`...), d.Size, 10)
			b = strconv.AppendBool(append(b, `,"Mkfs":`...), d.Mkfs)
			b = append(chainlog.AppendString(append(b, `,"MountAt":`...), d.MountAt), '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendBool(append(b, `,"NinePShare":`...), c.NinePShare)
	b = strconv.AppendBool(append(b, `,"DisableSeccomp":`...), c.DisableSeccomp)
	return append(chainlog.AppendString(append(b, `,"SeccompProfile":`...), c.SeccompProfile), '}')
}

// parseConfig is appendConfig's inverse: it takes a config record only
// in exactly the form appendConfig writes, so manifest paths must be
// strictly ascending.
func parseConfig(elem int, line []byte, l *snapLine) error {
	s := chainlog.NewScanner(chainlog.Prefix(line))
	c := &hypervisor.Config{}
	l.T, l.Config = "config", c
	s.Lit(configStart + `{"Kind":`)
	c.Kind = hypervisor.Kind(s.Int())
	s.Lit(`,"Name":`)
	c.Name = string(s.Str())
	s.Lit(`,"Arch":`)
	c.Arch = arch.Arch(s.Int())
	s.Lit(`,"KernelVersion":`)
	c.KernelVersion = string(s.Str())
	s.Lit(`,"RAMSize":`)
	c.RAMSize = s.Uint64()
	s.Lit(`,"VCPUs":`)
	c.VCPUs = s.Int()
	s.Lit(`,"Seed":`)
	c.Seed = s.Int64()
	s.Lit(`,"RootFS":`)
	if !s.Opt("null") {
		c.RootFS = fsimage.Manifest{}
		s.Lit("{")
		// Both loops end at the first member not followed by a comma;
		// once a scan has failed no Opt matches, so they end there too.
		prev := ""
		for more := !s.Opt("}"); more; {
			path := string(s.Str())
			s.Want(len(c.RootFS) == 0 || path > prev)
			var e fsimage.Entry
			s.Lit(`:{"Mode":`)
			e.Mode = s.Uint32()
			s.Lit(`,"UID":`)
			e.UID = s.Uint32()
			s.Lit(`,"GID":`)
			e.GID = s.Uint32()
			s.Lit(`,"Data":`)
			if !s.Opt("null") {
				e.Data = s.Base64()
			}
			s.Lit(`,"Symlink":`)
			e.Symlink = string(s.Str())
			s.Lit("}")
			c.RootFS[path], prev = e, path
			if more = s.Opt(","); !more {
				s.Lit("}")
			}
		}
	}
	s.Lit(`,"RootImageSize":`)
	c.RootImageSize = s.Int64()
	s.Lit(`,"ExtraDisks":`)
	if !s.Opt("null") {
		c.ExtraDisks = []hypervisor.DiskSpec{}
		s.Lit("[")
		for more := !s.Opt("]"); more; {
			var d hypervisor.DiskSpec
			s.Lit(`{"GuestName":`)
			d.GuestName = string(s.Str())
			s.Lit(`,"Size":`)
			d.Size = s.Int64()
			s.Lit(`,"Mkfs":`)
			d.Mkfs = s.Bool()
			s.Lit(`,"MountAt":`)
			d.MountAt = string(s.Str())
			s.Lit("}")
			c.ExtraDisks = append(c.ExtraDisks, d)
			if more = s.Opt(","); !more {
				s.Lit("]")
			}
		}
	}
	s.Lit(`,"NinePShare":`)
	c.NinePShare = s.Bool()
	s.Lit(`,"DisableSeccomp":`)
	c.DisableSeccomp = s.Bool()
	s.Lit(`,"SeccompProfile":`)
	c.SeccompProfile = string(s.Str())
	s.Lit("}")
	return s.Done(elem)
}

// WriteTo encodes the snapshot in canonical form. It implements
// io.WriterTo.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	label, err := json.Marshal(s.Label)
	if err != nil {
		return 0, err
	}
	cw := chainlog.NewWriter(w, Magic, Version, fmt.Sprintf(`,"label":%s,"vtime":%d`, label, s.VTime))
	emit := func(l snapLine) {
		if err != nil {
			return
		}
		var b []byte
		if b, err = json.Marshal(l); err == nil {
			cw.Line(b[:len(b)-1]) // the chain writer closes the object
		}
	}
	var line []byte
	payload := func(l snapLine) {
		if err == nil {
			line = appendPayload(line[:0], &l)
			cw.Line(line)
		}
	}

	line = appendConfig(line, &s.Config)
	cw.Line(line)
	for i := range s.VCPUs {
		emit(snapLine{T: "vcpu", VCPU: &s.VCPUs[i]})
	}
	for i := range s.Cursors {
		emit(snapLine{T: "cursors", Cursors: &s.Cursors[i]})
	}
	for _, p := range s.Pages {
		payload(snapLine{T: "page", Slot: p.Slot, Index: p.Index, Data: p.Data})
	}
	for _, d := range s.Disks {
		emit(snapLine{T: "disk", Disk: d.Name, Size: d.Size})
		for _, b := range d.Blocks {
			payload(snapLine{T: "block", Disk: d.Name, Index: b.Index, Data: b.Data})
		}
	}
	if s.Session != nil {
		emit(snapLine{T: "session", Image: s.Session.ImageName, Size: s.Session.ImageSize,
			Storage: s.Session.Storage, Trap: s.Session.Trap})
		for _, b := range s.Session.Blocks {
			payload(snapLine{T: "simage", Index: b.Index, Data: b.Data})
		}
	}
	emit(snapLine{T: "footer", RAMHashes: s.RAMHashes})
	n, cerr := cw.Flush()
	if err == nil {
		err = cerr
	}
	return n, err
}

// Read decodes and integrity-checks a snapshot stream. A magic or
// version mismatch returns a plain error (the caller has the wrong
// kind of file); structural damage — a broken checksum chain, a
// truncated stream, a config, page, block or simage record not in
// WriteTo's exact form, an out-of-place record — wraps
// ErrSnapshotCorrupt.
func Read(r io.Reader) (*Snapshot, error) {
	return read(r, func(elem int, line []byte, l *snapLine) error {
		if t := payloadType(line); t != "" {
			return parsePayload(elem, line, t, l)
		}
		if bytes.HasPrefix(line, []byte(configStart)) {
			return parseConfig(elem, line, l)
		}
		if err := chainlog.Unmarshal(elem, line, l); err != nil {
			return err
		}
		switch l.T {
		case "config", "page", "block", "simage":
			return &chainlog.Error{Elem: elem, Reason: "unparseable line: a " + l.T + " record not in canonical form"}
		}
		return nil
	})
}

// read checks the records decode yields; decode fills a zeroed snapLine
// from one verified line.
func read(r io.Reader, decode func(elem int, line []byte, l *snapLine) error) (*Snapshot, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
	}
	var hdr struct {
		Label string `json:"label"`
		VTime int64  `json:"vtime"`
	}
	s := &Snapshot{}
	diskByName := map[string]int{}
	var l snapLine
	err := chainlog.Read(r, Magic, Version, &hdr, func(n int, line []byte) (bool, error) {
		l = snapLine{}
		if err := decode(n, line, &l); err != nil {
			return false, err
		}
		switch l.T {
		case "footer":
			if len(l.RAMHashes) > 0 { // "ram":[] stays nil, as it re-encodes
				s.RAMHashes = l.RAMHashes
			}
			return true, nil
		case "config":
			if l.Config == nil {
				return false, corrupt("config record without payload")
			}
			s.Config = *l.Config
		case "vcpu":
			if l.VCPU == nil {
				return false, corrupt("vcpu record without payload")
			}
			s.VCPUs = append(s.VCPUs, *l.VCPU)
		case "cursors":
			if l.Cursors == nil {
				return false, corrupt("cursors record without payload")
			}
			s.Cursors = append(s.Cursors, *l.Cursors)
		case "page", "block", "simage":
			if len(l.Data) == 0 || len(l.Data) > PageSize {
				return false, corrupt("record %d: %s payload of %d bytes", n, l.T, len(l.Data))
			}
			b := BlockRecord{Index: l.Index, Data: l.Data}
			switch l.T {
			case "page":
				s.Pages = append(s.Pages, PageRecord{Slot: l.Slot, Index: l.Index, Data: l.Data})
			case "block":
				i, ok := diskByName[l.Disk]
				if !ok {
					return false, corrupt("block for undeclared disk %q", l.Disk)
				}
				s.Disks[i].Blocks = append(s.Disks[i].Blocks, b)
			default:
				if s.Session == nil {
					return false, corrupt("simage block before session record")
				}
				s.Session.Blocks = append(s.Session.Blocks, b)
			}
		case "disk":
			diskByName[l.Disk] = len(s.Disks)
			s.Disks = append(s.Disks, DiskImage{Name: l.Disk, Size: l.Size})
		case "session":
			s.Session = &SessionState{ImageName: l.Image, ImageSize: l.Size, Storage: l.Storage, Trap: l.Trap}
		default:
			return false, corrupt("record %d: unknown type %q", n, l.T)
		}
		return false, nil
	})
	var ce *chainlog.Error
	if errors.As(err, &ce) {
		return nil, fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	if err != nil {
		return nil, err
	}
	s.Label, s.VTime = hdr.Label, hdr.VTime
	return s, nil
}
