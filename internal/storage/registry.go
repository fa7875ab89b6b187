package storage

import (
	"fmt"
	"sort"
	"time"

	"vmsh/internal/faults"
	"vmsh/internal/fserr"
	"vmsh/internal/vclock"
)

// Config carries everything a backend constructor may need; each
// backend documents which fields it reads. Unused fields are ignored,
// so one Config can be handed to any registered backend.
type Config struct {
	// Size is the capacity in bytes of a block store built without a
	// Base image.
	Size int64
	// Base is the seed image for block backends: its current content
	// becomes the store's initial state.
	Base BlockBackend
	// Clock, Costs and Faults wire the remote backend into the host's
	// deterministic planes: per-op latency/bandwidth is charged to
	// Clock, and every op is checked against the fault plan of, and
	// observed (record/replay) by, the crossing plane Faults.
	Clock  *vclock.Clock
	Costs  *vclock.Costs
	Faults *faults.Injector
	// RemoteLat / RemoteBW override the remote link model (zero
	// values fall back to Costs.RemoteOpLat / Costs.RemoteLinkBW).
	RemoteLat time.Duration
	RemoteBW  float64
}

var blockBackends = map[string]func(Config) (BlockBackend, error){}

// RegisterBlock adds a block-store backend constructor under name
// (database/sql style; called from init functions).
func RegisterBlock(name string, open func(Config) (BlockBackend, error)) {
	if _, dup := blockBackends[name]; dup {
		panic("storage: duplicate block backend " + name)
	}
	blockBackends[name] = open
}

// OpenBlock constructs the named block-store backend.
func OpenBlock(name string, cfg Config) (BlockBackend, error) {
	open, ok := blockBackends[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown block backend %q (have %v): %w",
			name, BlockBackends(), fserr.ErrNotSupported)
	}
	return open(cfg)
}

// BlockBackends lists the registered block backend names, sorted.
func BlockBackends() []string {
	out := make([]string, 0, len(blockBackends))
	for n := range blockBackends {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
