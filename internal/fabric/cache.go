package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"pivot/internal/harness"
)

// Cache is the content-addressed result store: one JSON file per (build
// fingerprint, unit inputs) key, so re-running a sweep recomputes only the
// units whose inputs — code included — actually changed. Entries are written
// atomically and verified on read; a corrupt or foreign file is a miss, not
// an error.
type Cache struct {
	dir    string
	hits   atomic.Uint64
	misses atomic.Uint64
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// cacheKeyInput is exactly what the key hashes: every input that can change
// a unit's result. Index and Label are deliberately excluded — two sweep
// positions with identical resolved scenarios are the same computation.
type cacheKeyInput struct {
	Build    string          `json:"build"`
	Scenario json.RawMessage `json:"scenario"`
	Scale    any             `json:"scale"`
	Cores    int             `json:"cores"`
	Dense    bool            `json:"dense"`
}

// CacheKey derives the content address of one unit's result under one build.
func CacheKey(build string, p *harness.UnitPayload) string {
	raw, err := json.Marshal(cacheKeyInput{
		Build:    build,
		Scenario: p.Scenario,
		Scale:    p.Scale,
		Cores:    p.Cores,
		Dense:    p.Dense,
	})
	if err != nil {
		// UnitPayload is built from marshalable values only; this cannot
		// happen for payloads the harness produces.
		panic(fmt.Sprintf("fabric: cache key: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// cacheEntry is one stored result. Key is repeated inside the file so a
// renamed or truncated file cannot satisfy the wrong lookup.
type cacheEntry struct {
	Key   string          `json:"key"`
	Build string          `json:"build"`
	Label string          `json:"label"`
	Value json.RawMessage `json:"value"`
}

// path shards entries by the key's first byte to keep directories small.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get returns the cached result for key, counting the hit or miss. Missing,
// unreadable, malformed and mis-keyed files are all misses.
func (c *Cache) Get(key string) (json.RawMessage, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key || len(e.Value) == 0 {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.Value, true
}

// Put stores a result under key, atomically (concurrent writers of the same
// key race benignly: both write identical content).
func (c *Cache) Put(key, build, label string, value json.RawMessage) error {
	data, err := json.Marshal(cacheEntry{Key: key, Build: build, Label: label, Value: value})
	if err != nil {
		return err
	}
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return harness.WriteFileAtomic(p, data, 0o644)
}

// Hits and Misses report the lookup counters.
func (c *Cache) Hits() uint64   { return c.hits.Load() }
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// CachedJobs wraps each payload-carrying job's Run with a cache lookup:
// a hit returns the stored result without running anything, a miss runs the
// job and stores its result. This is the no-workers degradation path — the
// fabric Executor performs the same lookup itself when dispatching.
func CachedJobs(c *Cache, build string, jobs []harness.Job) []harness.Job {
	if c == nil {
		return jobs
	}
	out := make([]harness.Job, len(jobs))
	for i, job := range jobs {
		out[i] = job
		p, ok := job.Payload.(*harness.UnitPayload)
		if !ok || p == nil {
			continue
		}
		run := job.Run
		key := CacheKey(build, p)
		label := p.Label
		out[i].Run = func(ctx context.Context) (any, error) {
			if raw, ok := c.Get(key); ok {
				return raw, nil
			}
			v, err := run(ctx)
			if err != nil {
				return nil, err
			}
			raw, merr := json.Marshal(v)
			if merr != nil {
				return v, nil // uncacheable value: still a success
			}
			if perr := c.Put(key, build, label, raw); perr != nil {
				return v, nil // cache write failure must not fail the job
			}
			return json.RawMessage(raw), nil
		}
	}
	return out
}
