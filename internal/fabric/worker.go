package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pivot/internal/checkpoint"
	"pivot/internal/exp"
	"pivot/internal/harness"
	"pivot/internal/machine"
	"pivot/internal/scenario"
	"pivot/internal/sim"
	"pivot/internal/stats"
)

// WorkerConfig parameterises one worker process (or in-process worker).
type WorkerConfig struct {
	// Addr is the coordinator's address (see Listen/Dial).
	Addr string
	// Dir is the worker's scratch directory for checkpoint state; empty
	// means a temporary directory, removed on exit.
	Dir string
	// Name identifies the worker in logs and lease assignments; empty
	// derives one from the pid.
	Name string
	// Build is this worker's build fingerprint, checked by the coordinator.
	Build string
	// Logger receives structured diagnostics; nil silences them.
	Logger *slog.Logger
	// DialWait bounds how long the worker retries the initial dial
	// (0 = 10s); workers often start alongside the coordinator.
	DialWait time.Duration
}

// RunWorker connects to a coordinator and executes leased units until the
// coordinator says done, the connection drops, or ctx is cancelled. Returning
// nil means an orderly shutdown (done received or context cancelled).
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.DialWait <= 0 {
		cfg.DialWait = 10 * time.Second
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "pivot-fabric-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}

	c, err := Dial(cfg.Addr, cfg.DialWait)
	if err != nil {
		return err
	}
	w := newWire(c)
	defer w.close()
	// A cancelled worker context closes the connection, which unblocks any
	// pending recv.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			w.close()
		case <-stop:
		}
	}()

	if err := w.send(message{Type: msgHello, Worker: cfg.Name, Build: cfg.Build}); err != nil {
		return err
	}
	r := &unitRunner{dir: cfg.Dir, log: cfg.Logger, ctxs: make(map[string]*workerCtx)}
	for {
		if err := w.send(message{Type: msgReady}); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		m, err := w.recv()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("fabric: coordinator connection lost: %w", err)
		}
		switch m.Type {
		case msgDone:
			return nil
		case msgReject:
			return fmt.Errorf("fabric: coordinator rejected worker: %s", m.Detail)
		case msgLease:
			if m.Payload == nil {
				return errors.New("fabric: lease without payload")
			}
			cfg.Logger.Info("leased unit", "unit", m.Unit)
			value, resumed, rerr := r.runUnit(ctx, w, m)
			if ctx.Err() != nil {
				return nil
			}
			if rerr != nil {
				if serr := w.send(message{Type: msgError, Unit: m.Unit, Detail: rerr.Error()}); serr != nil {
					return serr
				}
				continue
			}
			if serr := w.send(message{Type: msgResult, Unit: m.Unit, Value: value, Resumed: resumed}); serr != nil {
				return serr
			}
		}
	}
}

// workerCtx is one cached execution context: a base exp.Context plus its
// unit resolver, reused across leases with the same execution settings so
// calibration caches carry over.
type workerCtx struct {
	ctx     *exp.Context
	resolve func(scenario.RunUnit) *exp.Context
}

// unitRunner executes leased units, caching contexts per configuration.
type unitRunner struct {
	dir  string
	log  *slog.Logger
	mu   sync.Mutex
	ctxs map[string]*workerCtx
}

// contextFor returns the cached context for a payload's execution settings.
func (r *unitRunner) contextFor(p *harness.UnitPayload) *workerCtx {
	key := fmt.Sprintf("%d|%t|%+v", p.Cores, p.Dense, p.Scale)
	r.mu.Lock()
	defer r.mu.Unlock()
	wc, ok := r.ctxs[key]
	if !ok {
		ctx := exp.NewContext(machine.KunpengConfig(p.Cores), p.Scale)
		ctx.Dense = p.Dense
		wc = &workerCtx{ctx: ctx, resolve: ctx.UnitResolver()}
		r.ctxs[key] = wc
	}
	return wc
}

// runUnit executes one leased unit: import any migrated checkpoint frame,
// run with per-unit checkpointing, heartbeat (and ship frames) while
// running, and return the JSON-encoded result.
func (r *unitRunner) runUnit(ctx context.Context, w *wire, m message) (json.RawMessage, uint64, error) {
	p := m.Payload
	sc, err := scenario.Parse(p.Scenario)
	if err != nil {
		return nil, 0, fmt.Errorf("fabric: unit %s: parsing scenario: %w", p.Label, err)
	}
	wc := r.contextFor(p)
	unit := scenario.RunUnit{Label: p.Label, Scenario: sc}
	rctx := wc.resolve(unit)
	spec, err := rctx.SpecForUnit(unit)
	if err != nil {
		return nil, 0, err
	}

	unitDir := filepath.Join(r.dir, fmt.Sprintf("unit-%04d", p.Index))
	if m.Ckpt != nil {
		// A migrated frame from the unit's previous worker: import it so the
		// run's ordinary restore path resumes mid-simulation. A bad frame
		// degrades to a fresh start, never to an error.
		if err := checkpoint.Import(unitDir, m.Ckpt.Rel, m.Ckpt.Data); err != nil {
			r.log.Warn("checkpoint import failed; starting fresh", "unit", p.Label, "err", err)
		} else {
			r.log.Info("imported migrated checkpoint", "unit", p.Label, "cycle", m.Ckpt.Cycle)
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	progress := stats.NewProgress()
	var resumedAt atomic.Uint64
	ectx := rctx.WithRunContext(runCtx)
	ectx.Progress = progress
	ectx.CheckpointDir = unitDir
	ectx.CheckpointInterval = sim.Cycle(p.CkptEvery)
	ectx.OnResume = func(c sim.Cycle) { resumedAt.Store(uint64(c)) }

	// Heartbeat loop: liveness + cycle progress every period, shipping the
	// newest checkpoint frame when one appeared. A failed send means the
	// coordinator is gone (or expired us): cancel the run.
	hb := time.Duration(m.HeartbeatMs) * time.Millisecond
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	hbDone := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(hb)
		defer tick.Stop()
		var shipped uint64
		for {
			select {
			case <-hbDone:
				return
			case <-tick.C:
			}
			if err := w.send(message{Type: msgHeartbeat, Unit: p.Label, Cycle: progress.Snapshot().Cycle}); err != nil {
				cancel()
				return
			}
			if rel, data, cycle, err := checkpoint.ExportLatest(unitDir); err == nil && cycle > shipped {
				if err := w.send(message{Type: msgCheckpoint, Unit: p.Label,
					Ckpt: &Frame{Rel: rel, Cycle: cycle, Data: data}}); err != nil {
					cancel()
					return
				}
				shipped = cycle
			}
		}
	}()

	res, runErr := ectx.Run(spec)
	close(hbDone)
	hbWG.Wait()
	if runErr != nil {
		return nil, 0, runErr
	}
	// The run completed; its checkpoint state has nothing left to protect.
	_ = os.RemoveAll(unitDir)
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, 0, err
	}
	return raw, resumedAt.Load(), nil
}
