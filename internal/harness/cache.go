package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"pivot/internal/exp"
)

// Cache is the harness's store of finished results: one JSON file per
// (build, job inputs) key. Keys are content, never sweep position, so a
// rerun of an interrupted sweep replays exactly the jobs that finished, and
// a rerun of an edited sweep or an edited build recomputes exactly the jobs
// whose inputs — code included — changed. Failed jobs are never stored, so
// they always re-run. Entries are written atomically and verified on read;
// a corrupt or foreign file is a miss, not an error.
type Cache struct {
	dir    string
	hits   atomic.Uint64
	misses atomic.Uint64
}

// OpenCache opens (creating if needed) a cache rooted at dir. It fails when
// the running executable cannot be read for its build key: without one the
// cache could serve results computed by different code.
func OpenCache(dir string) (*Cache, error) {
	if _, err := buildKey(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// buildKey is the build component of every cache key: the SHA-256 of the
// running executable, read once per process. Version stamps cannot serve
// here — `go run` binaries all report "(devel) unknown", and `go build`
// reports the same "<rev>+dirty" for every uncommitted edit.
var buildKey = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("harness: cache build key: %w", err)
	}
	return fileDigest(exe)
})

// fileDigest returns the hex SHA-256 of a file's contents.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("harness: cache build key: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("harness: cache build key: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cacheKeyInput is exactly what the key hashes: every input that can change
// a job's result. Sweep position and label are deliberately excluded — two
// positions with identical resolved inputs are the same computation.
type cacheKeyInput struct {
	Build string          `json:"build"`
	Unit  json.RawMessage `json:"unit"`
	Scale exp.Scale       `json:"scale"`
	Cores int             `json:"cores"`
	Dense bool            `json:"dense"`
}

// CacheKey derives the content address of one job's result under one build.
// unit is the JSON encoding of what the job runs: a scenario unit's
// canonical (sweep-free) object, or an experiment ID as a JSON string
// (experimentUnit). The two are different JSON kinds, so an experiment key
// never equals a scenario-unit key. Scale, cores and dense pin the executing
// context's configuration.
func CacheKey(build string, unit []byte, scale exp.Scale, cores int, dense bool) string {
	raw, err := json.Marshal(cacheKeyInput{
		Build: build,
		Unit:  unit,
		Scale: scale,
		Cores: cores,
		Dense: dense,
	})
	if err != nil {
		// Every field is a plain value and the unit a canonical encoding;
		// this cannot happen for keys the harness derives.
		panic(fmt.Sprintf("harness: cache key: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// cacheEntry is one stored result. Key is repeated inside the file so a
// renamed or truncated file cannot satisfy the wrong lookup; Label names the
// job that produced it, for humans browsing the directory.
type cacheEntry struct {
	Key   string          `json:"key"`
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
func (c *Cache) Put(key, label string, value json.RawMessage) error {
	data, err := json.Marshal(cacheEntry{Key: key, Label: label, Value: value})
	if err != nil {
		return err
	}
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return WriteFileAtomic(p, data, 0o644)
}

// Hits and Misses report the lookup counters.
func (c *Cache) Hits() uint64   { return c.hits.Load() }
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// CachedJobs wraps each keyed job's Run with a cache lookup: a hit returns
// the stored result without running anything, a miss runs the job and
// stores its result. Either way the value is the JSON encoding, so cold and
// warm runs decode the same bytes. Unkeyed jobs pass through untouched.
func CachedJobs(c *Cache, jobs []Job) []Job {
	if c == nil {
		return jobs
	}
	out := make([]Job, len(jobs))
	for i, job := range jobs {
		out[i] = job
		if job.Key == "" {
			continue
		}
		out[i].Run = func(ctx context.Context) (any, error) {
			if raw, ok := c.Get(job.Key); ok {
				return raw, nil
			}
			v, err := job.Run(ctx)
			if err != nil {
				return nil, err
			}
			raw, merr := json.Marshal(v)
			if merr != nil {
				return v, nil // uncacheable value: still a success
			}
			if perr := c.Put(job.Key, job.ID, raw); perr != nil {
				return v, nil // cache write failure must not fail the job
			}
			return json.RawMessage(raw), nil
		}
	}
	return out
}

// ValueAs decodes a Result's value as T, handling both live values (returned
// by an uncached job) and the json.RawMessage values CachedJobs returns.
func ValueAs[T any](res Result) (T, error) {
	var out T
	switch v := res.Value.(type) {
	case T:
		return v, nil
	case json.RawMessage:
		err := json.Unmarshal(v, &out)
		return out, err
	default:
		// Round-trip through JSON: covers live values whose concrete type
		// differs from T only by encoding (e.g. any-typed maps).
		raw, err := json.Marshal(res.Value)
		if err != nil {
			return out, err
		}
		return out, json.Unmarshal(raw, &out)
	}
}

// WriteFileAtomic writes data to path via a temp file + rename in the same
// directory, so readers never observe a half-written result and an aborted
// sweep cannot corrupt a previous complete output. The temp file is fsynced
// before the rename and the parent directory after it, so the result is
// durable: after WriteFileAtomic returns, a crash (or power loss) leaves
// either the old content or the complete new content — never a torn file and
// never a dangling directory entry.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			os.Remove(tmpName)
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	tmpName = ""
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename into it survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
