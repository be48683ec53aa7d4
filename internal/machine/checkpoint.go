package machine

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"

	"pivot/internal/checkpoint"
	"pivot/internal/sim"
)

// CheckpointConfig parameterises periodic checkpointing of a run.
type CheckpointConfig struct {
	// Dir holds this run's checkpoint files. Empty disables checkpointing.
	Dir string
	// Interval is the simulated-cycle period between checkpoints, aligned to
	// absolute cycle boundaries so an interrupted and a fresh run checkpoint
	// at the same instants. 0 = DefaultCheckpointInterval.
	Interval sim.Cycle
	// Keep bounds retained checkpoints (oldest pruned); 0 = 2, so a corrupt
	// newest file always leaves a good predecessor.
	Keep int
}

// DefaultCheckpointInterval is the checkpoint period when none is given:
// frequent enough that a killed quick-scale run loses little work, rare
// enough that writing state is simulation noise.
const DefaultCheckpointInterval sim.Cycle = 100_000

func (cc CheckpointConfig) interval() sim.Cycle {
	if cc.Interval <= 0 {
		return DefaultCheckpointInterval
	}
	return cc.Interval
}

func (cc CheckpointConfig) keep() int {
	if cc.Keep <= 0 {
		return 2
	}
	return cc.Keep
}

// encodeState gob-encodes a machine snapshot into a checkpoint payload.
func encodeState(s *MachineState) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeState parses a checkpoint payload. Like checkpoint.Decode it must
// never panic: gob on arbitrary bytes returns errors.
func decodeState(payload []byte) (*MachineState, error) {
	s := new(MachineState)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(s); err != nil {
		return nil, err
	}
	return s, nil
}

// StateBytes serialises the machine's complete mutable state (the checkpoint
// payload encoding, without the frame). Two machines that simulated the same
// workload to the same cycle — dense vs skip-ahead, resumed vs uninterrupted
// — must produce byte-identical StateBytes; the differential oracles compare
// exactly that.
func (m *Machine) StateBytes() ([]byte, error) {
	return encodeState(m.SnapshotState())
}

// WriteCheckpoint snapshots the machine and writes it durably to dir,
// pruning old files down to keep. It only reads machine state, so emitting
// checkpoints cannot perturb simulated results.
func (m *Machine) WriteCheckpoint(dir string, keep int) (string, error) {
	payload, err := encodeState(m.SnapshotState())
	if err != nil {
		return "", err
	}
	path, err := checkpoint.Write(dir, checkpoint.Checkpoint{
		Cycle:       uint64(m.Engine.Now()),
		Fingerprint: m.Fingerprint(),
		Payload:     payload,
	})
	if err != nil {
		return "", err
	}
	if keep > 0 {
		_ = checkpoint.Prune(dir, keep) // best-effort; stale files are harmless
	}
	return path, nil
}

// TryRestore loads the newest usable checkpoint from dir into the machine.
// Corrupt frames are already skipped by checkpoint.LoadLatest (CRC); a frame
// whose payload fails gob decoding or geometry validation is removed and the
// next-older one tried, degrading gracefully to "no checkpoint" (restored ==
// false, machine untouched) as the from-scratch floor.
func (m *Machine) TryRestore(dir string) (restored bool, fromCycle sim.Cycle, err error) {
	if dir == "" {
		return false, 0, nil
	}
	fp := m.Fingerprint()
	for {
		ck, path, err := checkpoint.LoadLatest(dir, fp)
		if errors.Is(err, checkpoint.ErrNoCheckpoint) {
			return false, 0, nil
		}
		if err != nil {
			return false, 0, err
		}
		s, derr := decodeState(ck.Payload)
		if derr == nil {
			derr = m.RestoreState(s) // validates before mutating
		}
		if derr == nil {
			return true, sim.Cycle(ck.Cycle), nil
		}
		// The frame passed its CRC but its payload is unusable (format drift,
		// geometry mismatch from a stale directory): discard and fall back.
		if rmErr := os.Remove(path); rmErr != nil {
			return false, 0, fmt.Errorf("machine: unusable checkpoint %s (%v) could not be removed: %w", path, derr, rmErr)
		}
	}
}

// RunCheckpointed is RunChecked with crash safety: it first attempts to
// restore the run's newest good checkpoint from cc.Dir, then advances through
// the warm-up and measured regions emitting a checkpoint every cc.Interval
// cycles (aligned to absolute boundaries). Statistics are reset exactly once
// at the warm-up/measure boundary — skipped when the restored cycle is
// already past it, because the reset's effects are part of the restored
// state. On an external abort (context cancellation, cycle budget) a final
// checkpoint is flushed so a resuming process loses nothing; watchdog and
// audit aborts deliberately do NOT checkpoint, as the machine state is
// suspect. It returns the cycle the run resumed from (0 when fresh).
//
// Checkpointing never perturbs results: restore(snapshot(M)) then stepping N
// cycles is bit-identical to stepping M the same N cycles, so the final
// statistics match an uninterrupted RunChecked exactly.
func (m *Machine) RunCheckpointed(ctx context.Context, warmup, measure sim.Cycle, cc CheckpointConfig) (resumedFrom sim.Cycle, err error) {
	if cc.Dir == "" {
		return 0, m.RunChecked(ctx, warmup, measure)
	}
	restored, from, err := m.TryRestore(cc.Dir)
	if err != nil {
		return 0, err
	}
	if restored {
		resumedFrom = from
	}

	end := warmup + measure
	if m.Engine.Now() < warmup {
		if err := m.stepCheckpointed(ctx, warmup-m.Engine.Now(), cc); err != nil {
			return resumedFrom, err
		}
	}
	if m.Engine.Now() == warmup {
		// Reset at the boundary even when the restore landed exactly on it: a
		// periodic checkpoint written at the warm-up boundary holds pre-reset
		// state (the write happens inside the warm-up stepping), so skipping
		// the reset here would silently count the warm-up as measured. When
		// the restored frame was already post-reset (an abort flush at this
		// cycle), resetting again is a no-op — no cycle has elapsed since.
		m.ResetStats()
	}
	if m.Engine.Now() >= end {
		// The checkpoint already covers the whole run (flushed at the final
		// boundary); the restored measured-region length stands.
		return resumedFrom, nil
	}
	start := m.measureStart
	err = m.stepCheckpointed(ctx, end-m.Engine.Now(), cc)
	m.measured = m.Engine.Now() - start
	return resumedFrom, err
}

// stepCheckpointed advances n cycles via StepChecked, pausing at absolute
// Interval boundaries to write a checkpoint. Write failures are swallowed
// for periodic checkpoints (the simulation result is unaffected; recovery
// just reaches further back) but a final abort-flush failure is reported
// alongside the abort.
func (m *Machine) stepCheckpointed(ctx context.Context, n sim.Cycle, cc CheckpointConfig) error {
	interval := cc.interval()
	for n > 0 {
		next := (m.Engine.Now()/interval + 1) * interval
		step := next - m.Engine.Now()
		if step > n {
			step = n
		}
		if err := m.StepChecked(ctx, step); err != nil {
			var abort *AbortError
			if errors.As(err, &abort) {
				// Graceful shutdown: the machine is healthy, the world wants
				// us gone. Flush state so resume continues from right here.
				if _, werr := m.WriteCheckpoint(cc.Dir, cc.keep()); werr != nil {
					return fmt.Errorf("%w (final checkpoint flush also failed: %v)", err, werr)
				}
			}
			return err
		}
		n -= step
		if m.Engine.Now() == next {
			_, _ = m.WriteCheckpoint(cc.Dir, cc.keep())
		}
	}
	return nil
}
