package replay

import (
	"vmsh/internal/faults"
	"vmsh/internal/vclock"
)

// Recorder is a faults.Tap that appends every observed host crossing
// to an in-memory Log, stamping each with the current virtual time.
// It is a pure observer: it never advances the clock or consumes
// randomness, so a recorded run stays bit-identical to an unrecorded
// one.
type Recorder struct {
	clock     *vclock.Clock
	log       Log
	recs      records // the crossings, until Finalize moves them into log
	opSeq     map[string]int
	finalized bool
}

// NewRecorder starts a recording labelled label (typically the
// session/experiment name) with the given plan seed (0 when no fault
// plan is armed).
func NewRecorder(clock *vclock.Clock, label string, seed uint64) *Recorder {
	return &Recorder{
		clock: clock,
		log:   Log{Version: Version, Label: label, Seed: seed},
		opSeq: make(map[string]int),
	}
}

// Crossing implements faults.Tap.
func (r *Recorder) Crossing(c faults.Crossing) {
	if r.finalized {
		return
	}
	os := r.opSeq[string(c.Op)] + 1
	r.opSeq[string(c.Op)] = os
	r.recs.add(Record{
		Seq:    r.recs.n + 1,
		Op:     string(c.Op),
		Stage:  c.Stage,
		OpSeq:  os,
		Args:   c.Args,
		Result: c.Result,
		Err:    c.Err,
		VTime:  int64(r.clock.Now()),
	})
}

// Crossings reports how many crossings have been recorded so far.
func (r *Recorder) Crossings() int {
	if r.finalized {
		return len(r.log.Records)
	}
	return r.recs.n
}

// Finalize seals the recording with the session's end state: the
// final virtual time (read from the clock), per-memslot RAM hashes
// and the session metric snapshot. Crossings delivered after Finalize
// are ignored. It returns the completed log; calling it again returns
// the same log without re-sealing.
func (r *Recorder) Finalize(ram []uint64, metrics map[string]int64) *Log {
	if !r.finalized {
		r.finalized = true
		if metrics == nil {
			metrics = map[string]int64{}
		}
		r.log.Records = r.recs.take()
		r.log.Footer = Footer{
			Crossings: len(r.log.Records),
			VTime:     int64(r.clock.Now()),
			RAM:       ram,
			Metrics:   metrics,
		}
	}
	return &r.log
}

// Log returns the recording. Its Records and Footer are filled in by
// Finalize; before that it holds only the header fields.
func (r *Recorder) Log() *Log { return &r.log }
