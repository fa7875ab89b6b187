package lifecycle

import (
	"errors"
	"fmt"
)

// Migration phases, in execution order. A *MigrateError names the one
// that failed.
const (
	PhasePrepare     = "prepare"       // destination launch + initial full sync
	PhasePrecopy     = "precopy"       // dirty-page rounds while the source runs
	PhaseQuiesce     = "quiesce"       // pause + session detach + final dirty drain
	PhaseStopAndCopy = "stop_and_copy" // remaining pages copied under pause
	PhasePostCopy    = "postcopy"      // minimal state copied; pages stream on fault
	PhaseResume      = "resume"        // destination resumes + session re-attach
	PhaseVerify      = "verify"        // FNV-64a RAM equality check
)

// MigrateError is the typed migration failure: which phase failed, for
// which VM, wrapping the underlying cause — the lifecycle counterpart
// of core.AttachError. Recover it with errors.As and classify the
// cause with errors.Is against the sentinels below.
type MigrateError struct {
	// Phase is the migration phase that failed (Phase* constants).
	Phase string
	// VM is the migrating VM's name.
	VM string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *MigrateError) Error() string {
	return fmt.Sprintf("vmsh migrate: phase %s: vm %s: %v", e.Phase, e.VM, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *MigrateError) Unwrap() error { return e.Err }

// Failure sentinels, matchable through a *MigrateError chain.
var (
	// ErrSnapshotCorrupt: a snapshot's checksum chain or structure is
	// damaged.
	ErrSnapshotCorrupt = errors.New("snapshot corrupt")
	// ErrSessionNotQuiescable: the session offered for lifecycle
	// capture cannot be quiesced (e.g. a Minimal attach with no image).
	ErrSessionNotQuiescable = errors.New("session cannot be quiesced")
	// ErrRAMDiverged: post-migration (or post-restore) RAM hashes
	// differ between source and destination.
	ErrRAMDiverged = errors.New("source and destination RAM diverged")
	// ErrNoPending: Drain was called on a migration with no post-copy
	// state outstanding.
	ErrNoPending = errors.New("no post-copy pages pending")
)
