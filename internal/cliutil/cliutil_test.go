package cliutil

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestCancelOnSignal: the first SIGINT cancels the context instead of
// killing the process, and stop returns once the watcher has exited.
func TestCancelOnSignal(t *testing.T) {
	ctx, stop := CancelOnSignal("cliutil-test")
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("SIGINT did not cancel the context")
	}
	stop()
	stop()
}

// TestCancelOnSignalStopWithoutSignal: stop alone cancels the context and
// releases the watcher.
func TestCancelOnSignalStopWithoutSignal(t *testing.T) {
	ctx, stop := CancelOnSignal("cliutil-test")
	stop()
	if ctx.Err() == nil {
		t.Fatal("stop left the context live")
	}
}

// TestWritersRejectMissingArtifacts: exporting an artifact no run produced
// is an error, and nothing is written.
func TestWritersRejectMissingArtifacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteStats(nil, path); err == nil {
		t.Error("WriteStats(nil) succeeded")
	}
	if err := WriteTimeline(nil, path); err == nil {
		t.Error("WriteTimeline(nil) succeeded")
	}
	if err := WriteFlight(nil, path); err == nil {
		t.Error("WriteFlight(nil) succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a rejected export left %s behind (stat: %v)", path, err)
	}
}
