package harness

import (
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"pivot/internal/exp"
	"pivot/internal/machine"
	"pivot/internal/scenario"
)

var testScenario = []byte(`{"version":1,"name":"t"}`)

func testKey(build string) string {
	return CacheKey(build, testScenario, exp.Quick(), 4, false)
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("build-a")
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Put(key, "unit", json.RawMessage(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	raw, ok := c.Get(key)
	if !ok || string(raw) != `{"x":1}` {
		t.Fatalf("Get = (%q, %v), want the stored value", raw, ok)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("counters = %d hits / %d misses, want 1/1", c.Hits(), c.Misses())
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := testKey("build-a")
	if testKey("build-a") != base {
		t.Error("the same inputs must give the same key")
	}
	if testKey("build-b") == base {
		t.Error("build must affect the cache key")
	}
	if CacheKey("build-a", []byte(`{"version":1,"name":"other"}`), exp.Quick(), 4, false) == base {
		t.Error("scenario encoding must affect the cache key")
	}
	if CacheKey("build-a", testScenario, exp.Quick(), 8, false) == base {
		t.Error("cores must affect the cache key")
	}
	if CacheKey("build-a", testScenario, exp.Quick(), 4, true) == base {
		t.Error("dense must affect the cache key")
	}
	scale := exp.Quick()
	scale.Seed = 99
	if CacheKey("build-a", testScenario, scale, 4, false) == base {
		t.Error("scale must affect the cache key")
	}
	// An experiment's unit is its ID as a JSON string; a scenario unit is a
	// JSON object, so the two key spaces cannot meet.
	fig1 := CacheKey("build-a", experimentUnit("fig1"), exp.Quick(), 4, false)
	if string(experimentUnit("fig1")) != `"fig1"` {
		t.Errorf("experimentUnit(fig1) = %s, want a JSON string", experimentUnit("fig1"))
	}
	if fig1 == base || fig1 == CacheKey("build-a", experimentUnit("fig2"), exp.Quick(), 4, false) {
		t.Error("experiment ID must affect the cache key")
	}
}

// TestBuildKeyDigestsTheFile: the build component of the key is the
// executable's content, so any code edit that changes the binary changes
// every key, and an unchanged binary keeps them.
func TestBuildKeyDigestsTheFile(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := os.WriteFile(a, []byte("ROBSize: 192"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("ROBSize: 48"), 0o644); err != nil {
		t.Fatal(err)
	}
	ka, err := fileDigest(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := fileDigest(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Fatal("different files gave the same build key")
	}
	again, err := fileDigest(a)
	if err != nil {
		t.Fatal(err)
	}
	if again != ka {
		t.Fatalf("the same file gave two build keys: %s, %s", ka, again)
	}
	if _, err := fileDigest(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("an unreadable file gave a build key")
	}
	if k, err := buildKey(); err != nil || len(k) != 64 {
		t.Fatalf("buildKey() = (%q, %v), want the test binary's SHA-256", k, err)
	}
}

func TestCacheCorruptEntryIsMiss(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("b")
	if err := c.Put(key, "u", json.RawMessage(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	// Truncate the stored file: the entry must become a miss, not an error.
	if err := os.WriteFile(c.path(key), []byte(`{"key":"tr`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt cache file reported a hit")
	}
	// A mis-keyed entry (renamed file) must also miss.
	other := testKey("other-build")
	data, _ := json.Marshal(cacheEntry{Key: key, Value: json.RawMessage(`{"x":1}`)})
	if err := os.MkdirAll(filepath.Dir(c.path(other)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(other), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(other); ok {
		t.Fatal("mis-keyed cache file reported a hit")
	}
}

func TestCachedJobs(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	jobs := []Job{
		{
			ID:  "000:u",
			Run: func(context.Context) (any, error) { runs++; return map[string]int{"v": 42}, nil },
			Key: testKey("build-a"),
		},
		{
			// Unkeyed: must pass through untouched.
			ID:  "001:plain",
			Run: func(context.Context) (any, error) { runs++; return "plain", nil },
		},
	}
	for _, j := range CachedJobs(c, jobs) {
		if _, err := j.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 2 {
		t.Fatalf("first pass ran %d jobs, want 2", runs)
	}
	// Second pass: the keyed job must come from the cache.
	for _, j := range CachedJobs(c, jobs) {
		v, err := j.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if j.ID == "000:u" {
			raw, ok := v.(json.RawMessage)
			if !ok || string(raw) != `{"v":42}` {
				t.Fatalf("cached value = %v, want raw {\"v\":42}", v)
			}
		}
	}
	if runs != 3 {
		t.Fatalf("second pass ran the cached job (total %d runs, want 3)", runs)
	}
	if c.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", c.Hits())
	}
}

// TestCacheHitsLogAsHits runs a keyed job cold, warm, and warm with
// Refresh through a logging Runner: a hit must be logged as "job cached",
// never as the "job ok" of a run, and a Refresh job must run (and count as
// a miss) even though its entry exists.
func TestCacheHitsLogAsHits(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	job := Job{
		ID:  "000:u",
		Run: func(context.Context) (any, error) { runs++; return 7, nil },
		Key: testKey("build-a"),
	}
	pass := func(refresh bool) (Result, string) {
		t.Helper()
		var log strings.Builder
		j := job
		j.Refresh = refresh
		res := New(Config{Logger: slog.New(slog.NewTextHandler(&log, nil))}).Run(CachedJobs(c, []Job{j}))[0]
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res, log.String()
	}

	_, log := pass(false)
	if !strings.Contains(log, "job ok") || strings.Contains(log, "job cached") || runs != 1 {
		t.Fatalf("cold pass: runs=%d log %q, want a logged run", runs, log)
	}
	res, log := pass(false)
	if !strings.Contains(log, "job cached") || strings.Contains(log, "job ok") || runs != 1 {
		t.Fatalf("warm pass: runs=%d log %q, want a logged hit", runs, log)
	}
	if v, err := ValueAs[int](res); err != nil || v != 7 {
		t.Fatalf("warm pass value = %v (%v), want 7", v, err)
	}
	_, log = pass(true)
	if !strings.Contains(log, "job ok") || strings.Contains(log, "job cached") || runs != 2 {
		t.Fatalf("refresh pass: runs=%d log %q, want a logged run", runs, log)
	}
	if c.Hits() != 1 || c.Misses() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", c.Hits(), c.Misses())
	}
}

// cacheSweep is a four-unit sweep cheap enough for unit tests.
const cacheSweep = `{
  "version": 1,
  "name": "cache-test",
  "machine": {"cores": 4},
  "policy": "Default",
  "warmup": 20000,
  "measure": 30000,
  "tasks": [
    {"kind": "lc", "app": "masstree", "interarrival": 3000},
    {"kind": "be", "app": "ibench", "threads": 2}
  ],
  "sweep": [
    {"param": "policy", "values": ["Default", "FullPath"]},
    {"param": "seed", "values": [1, 2]}
  ]
}`

// sweepTable runs sc's units through a two-worker Runner, via the cache when
// one is given, and renders the scenario table. It also returns the IDs of
// the units that actually simulated (the cache misses).
func sweepTable(t *testing.T, ctx *exp.Context, sc *scenario.Scenario, cache *Cache) (string, []string) {
	t.Helper()
	jobs, labels, err := ScenarioJobs(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var ran []string
	for i, j := range jobs {
		jobs[i].Run = func(rc context.Context) (any, error) {
			mu.Lock()
			ran = append(ran, j.ID)
			mu.Unlock()
			return j.Run(rc)
		}
	}
	r := New(Config{Parallel: 2})
	results := r.Run(CachedJobs(cache, jobs))
	rendered := make([]exp.RunResult, len(results))
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("unit %s: %v", res.ID, res.Err)
		}
		rendered[i] = decodeRun(t, res)
	}
	return exp.ScenarioTable(sc, labels, rendered).String(), ran
}

// TestCachedSweepMatchesUncached is the cache's contract end to end: a cold
// cached sweep renders the uncached table byte for byte, a warm rerun is all
// hits with the same bytes, and after one sweep value is edited exactly the
// units it changed recompute.
func TestCachedSweepMatchesUncached(t *testing.T) {
	ctx := exp.NewContext(machine.KunpengConfig(8), exp.Quick())
	sc, err := scenario.Parse([]byte(cacheSweep))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sweepTable(t, ctx, sc, nil)
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	if got, _ := sweepTable(t, ctx, sc, cache); got != want {
		t.Fatalf("cold cached table differs from uncached:\n--- uncached ---\n%s\n--- cached ---\n%s", want, got)
	}
	if cache.Hits() != 0 || cache.Misses() != 4 {
		t.Fatalf("cold run: %d hits / %d misses, want 0/4", cache.Hits(), cache.Misses())
	}

	got, ran := sweepTable(t, ctx, sc, cache)
	if got != want {
		t.Fatalf("warm cached table differs from uncached:\n--- uncached ---\n%s\n--- cached ---\n%s", want, got)
	}
	if len(ran) != 0 || cache.Hits() != 4 || cache.Misses() != 4 {
		t.Fatalf("warm run simulated %v (%d hits / %d misses total), want all hits", ran, cache.Hits(), cache.Misses())
	}

	edited, err := scenario.Parse([]byte(strings.Replace(cacheSweep, "[1, 2]", "[1, 3]", 1)))
	if err != nil {
		t.Fatal(err)
	}
	wantEdited, _ := sweepTable(t, ctx, edited, nil)
	got, ran = sweepTable(t, ctx, edited, cache)
	if got != wantEdited {
		t.Fatalf("edited cached table differs from uncached:\n--- uncached ---\n%s\n--- cached ---\n%s", wantEdited, got)
	}
	jobs, _, err := ScenarioJobs(ctx, edited)
	if err != nil {
		t.Fatal(err)
	}
	var changed []string
	for _, j := range jobs {
		if strings.Contains(j.ID, "seed=3") {
			changed = append(changed, j.ID)
		}
	}
	slices.Sort(ran)
	if len(changed) != 2 || !slices.Equal(ran, changed) {
		t.Fatalf("edited sweep simulated %v, want exactly the changed units %v", ran, changed)
	}
}
