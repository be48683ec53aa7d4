package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// These tests pin the journal's recovery contract against real corruption
// shapes: a truncated trailing line (the process died mid-append), interleaved
// partial writes (two writers without the append discipline), failure records
// (reported, never treated as done), and entries stamped by a foreign build
// fingerprint (replayed — the fingerprint is an audit trail, not a key).

func journalFile(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	var data []byte
	for _, l := range lines {
		data = append(data, l...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func resumeRun(t *testing.T, path string, jobs []Job) []Result {
	t.Helper()
	r, err := New(Config{JournalPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	return r.Run(jobs)
}

func countingJob(id string, runs *int) Job {
	return Job{ID: id, Run: func(context.Context) (any, error) { *runs++; return "fresh:" + id, nil }}
}

func TestResumeSkipsTruncatedTrailingLine(t *testing.T) {
	path := journalFile(t,
		`{"id":"a","value":"done-a"}`+"\n",
		`{"id":"b","value":"done-b`, // no closing quote, no newline: torn write
	)
	runs := 0
	results := resumeRun(t, path, []Job{countingJob("a", &runs), countingJob("b", &runs)})
	if !results[0].Resumed || results[1].Resumed {
		t.Fatalf("resumed flags = %v/%v, want a resumed, b recomputed", results[0].Resumed, results[1].Resumed)
	}
	if runs != 1 {
		t.Fatalf("ran %d job(s), want 1 (only the torn entry recomputes)", runs)
	}
	// The torn entry's job must now be journaled properly for the next run.
	runs = 0
	results = resumeRun(t, path, []Job{countingJob("a", &runs), countingJob("b", &runs)})
	if runs != 0 || !results[0].Resumed || !results[1].Resumed {
		t.Fatalf("second resume recomputed %d job(s), want 0", runs)
	}
}

func TestResumeSkipsInterleavedPartialWrites(t *testing.T) {
	path := journalFile(t,
		`{"id":"a","value":"done-a"}`+"\n",
		`{"id":"b","val{"id":"c","value":"done-c"}`+"\n", // two writes interleaved into one line
		`{"id":"d","value":"done-d"}`+"\n",
	)
	runs := 0
	results := resumeRun(t, path, []Job{
		countingJob("a", &runs), countingJob("b", &runs),
		countingJob("c", &runs), countingJob("d", &runs),
	})
	for i, want := range []bool{true, false, false, true} {
		if results[i].Resumed != want {
			t.Errorf("job %s resumed = %v, want %v", results[i].ID, results[i].Resumed, want)
		}
	}
	if runs != 2 {
		t.Fatalf("ran %d job(s), want 2 (the mangled line's jobs recompute)", runs)
	}
}

func TestFailureEntriesReRunAndAreReported(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	boom := errors.New("deterministic failure")
	attempts := 0
	flaky := Job{ID: "flaky", Run: func(context.Context) (any, error) {
		attempts++
		if attempts == 1 {
			return nil, boom
		}
		return "recovered", nil
	}}

	// First sweep: the job fails and the failure must be journaled.
	r, err := New(Config{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if res := r.Run([]Job{flaky}); res[0].Err == nil {
		t.Fatal("first run should have failed")
	}
	entries, err := LoadEntries(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].Failed || entries[0].Attempts != 1 ||
		entries[0].Error != boom.Error() {
		t.Fatalf("journal after failure = %+v, want one structured failure record", entries)
	}
	// A failure record is not a success: LoadJournal must not surface it.
	done, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("LoadJournal returned %d done job(s), want 0 (failures re-run)", len(done))
	}

	// Resume: the failed job re-runs (succeeding this time) and the journal's
	// success entry supersedes the failure record.
	results := resumeRun(t, path, []Job{flaky})
	if results[0].Err != nil || results[0].Resumed {
		t.Fatalf("resume result = %+v, want a fresh successful run", results[0])
	}
	if attempts != 2 {
		t.Fatalf("job ran %d time(s), want 2", attempts)
	}
	done, err = LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(done["flaky"]) != `"recovered"` {
		t.Fatalf("journal value = %s, want the recovery result", done["flaky"])
	}
	// Third sweep: now it resumes without recomputing.
	results = resumeRun(t, path, []Job{flaky})
	if !results[0].Resumed || attempts != 2 {
		t.Fatalf("third sweep recomputed (resumed=%v attempts=%d)", results[0].Resumed, attempts)
	}
}

func TestResumeReplaysForeignFingerprintEntries(t *testing.T) {
	// An entry computed by a different build replays — Version is an audit
	// trail for `pivot-exp`-level tooling, not a cache key. (The result
	// cache in cache.go is the layer that keys on the build.)
	path := journalFile(t, `{"id":"a","version":"pivot v0.0.0-archaeology","value":"old-result"}`+"\n")
	runs := 0
	results := resumeRun(t, path, []Job{countingJob("a", &runs)})
	if !results[0].Resumed || runs != 0 {
		t.Fatalf("foreign-fingerprint entry did not replay (resumed=%v runs=%d)", results[0].Resumed, runs)
	}
	v, err := ValueAs[string](results[0])
	if err != nil || v != "old-result" {
		t.Fatalf("replayed value = %q (%v), want the journaled one", v, err)
	}
}

func TestFailureRecordSupersededByLaterSuccessInFile(t *testing.T) {
	// File-order semantics: last entry per ID wins, in both directions.
	path := journalFile(t,
		`{"id":"a","failed":true,"error":"boom","attempts":2}`+"\n",
		`{"id":"a","value":"fixed"}`+"\n",
		`{"id":"b","value":"was-fine"}`+"\n",
		`{"id":"b","failed":true,"error":"regressed","attempts":1}`+"\n",
	)
	done, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(done["a"]) != `"fixed"` {
		t.Errorf("a = %s, want the later success", done["a"])
	}
	if _, ok := done["b"]; ok {
		t.Error("b's later failure record must invalidate its earlier success")
	}
}
