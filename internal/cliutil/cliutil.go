// Package cliutil holds the small pieces both CLIs (pivotsim, pivot-exp)
// share: the -log-format structured logger, the -version line, the
// -debug-addr server, graceful signal handling, and the atomic exporters of
// the last run's stats dump, timeline and flight report.
package cliutil

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"pivot/internal/buildinfo"
	"pivot/internal/flight"
	"pivot/internal/harness"
	"pivot/internal/stats"
)

// Logger builds the diagnostics logger selected by -log-format: "text"
// (human-readable key=value lines) or "json" (one JSON object per line, for
// log collectors). Output goes to stderr, keeping stdout for results.
func Logger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// Version renders the -version line for a CLI.
func Version(cmd string) string {
	return cmd + " " + buildinfo.Fingerprint()
}

// ServeDebug starts the -debug-addr server (net/http/pprof, runtime metrics
// and /progress) and returns the live progress feed it serves. An empty addr
// serves nothing and returns a nil feed.
func ServeDebug(addr string, logger *slog.Logger) (*stats.Progress, error) {
	if addr == "" {
		return nil, nil
	}
	progress := stats.NewProgress()
	bound, err := stats.ServeDebugWith(addr, progress)
	if err != nil {
		return nil, err
	}
	logger.Info("debug server up", "pprof", "http://"+bound+"/debug/pprof/", "progress", "http://"+bound+"/progress")
	return progress, nil
}

// CancelOnSignal returns a context the first SIGINT or SIGTERM cancels, so
// in-flight simulations abort at their next check; jobs that already
// finished stay in the -cache-dir result cache, and the CLI exits 130. A
// second signal exits 130 at once.
// stop cancels the context, restores default signal handling and returns
// once the watching goroutine has exited; it is safe to call more than once.
func CancelOnSignal(cmd string) (ctx context.Context, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case s := <-sigCh:
			fmt.Fprintf(os.Stderr, "\n%s: %v: stopping (in-flight runs abort; finished jobs stay in -cache-dir); signal again to force quit\n", cmd, s)
			cancel()
		case <-done:
			return
		}
		select {
		case <-sigCh:
			os.Exit(130)
		case <-done:
		}
	}()
	return ctx, sync.OnceFunc(func() {
		signal.Stop(sigCh)
		close(done)
		<-exited
		cancel()
	})
}

// WriteStats exports a stats dump to path atomically: CSV with a .csv
// suffix, JSON otherwise.
func WriteStats(d *stats.Dump, path string) error {
	if d == nil {
		return fmt.Errorf("no instrumented run produced a stats dump (no co-location simulation ran)")
	}
	var buf bytes.Buffer
	var err error
	if strings.HasSuffix(path, ".csv") {
		err = d.WriteCSV(&buf)
	} else {
		err = d.WriteJSON(&buf)
	}
	if err != nil {
		return err
	}
	return harness.WriteFileAtomic(path, buf.Bytes(), 0o644)
}

// WriteTimeline exports a Chrome trace-event timeline to path atomically.
func WriteTimeline(tl *stats.Timeline, path string) error {
	if tl == nil {
		return fmt.Errorf("no instrumented run produced a timeline (no co-location simulation ran)")
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		return err
	}
	return harness.WriteFileAtomic(path, buf.Bytes(), 0o644)
}

// WriteFlight exports a tail-attribution report to path, dispatching on the
// suffix: .json gets the full machine-readable report, .csv the table blocks
// as CSV, anything else the aligned text tables. The build fingerprint is
// stamped into the report source at export time (not at capture time, so
// in-memory reports stay comparable across runs of the same binary). The
// write is atomic: readers never observe a torn report.
func WriteFlight(rep *flight.Report, path string) error {
	if rep == nil {
		return fmt.Errorf("no flight-recorded run produced a report")
	}
	stamped := *rep
	stamped.Source = stamped.Source + " | " + buildinfo.Fingerprint()
	var buf bytes.Buffer
	var err error
	switch {
	case strings.HasSuffix(path, ".json"):
		err = stamped.WriteJSON(&buf)
	case strings.HasSuffix(path, ".csv"):
		err = stamped.WriteCSV(&buf)
	default:
		err = stamped.WriteText(&buf)
	}
	if err != nil {
		return err
	}
	return harness.WriteFileAtomic(path, buf.Bytes(), 0o644)
}
