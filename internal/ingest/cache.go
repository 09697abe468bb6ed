package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"gpuresilience/internal/xid"
)

// CacheOutcome classifies what the event-shard cache did for one shard.
type CacheOutcome int

// Cache outcomes, in the order a lookup decides them.
const (
	// CacheDisabled means no cache was configured for the run.
	CacheDisabled CacheOutcome = iota
	// CacheBypass means the run's Stage I configuration is not cacheable
	// (lenient mode carries quarantine state the cache does not persist).
	CacheBypass
	// CacheMiss means no cached shard existed for the source file.
	CacheMiss
	// CacheInvalidated means a cached shard existed but failed validation:
	// format-version, source-digest, or parser-config mismatch, or a
	// corrupt file. The shard is re-parsed and the entry overwritten.
	CacheInvalidated
	// CacheHit means the cached events were served and the parse skipped.
	CacheHit
)

// String names the outcome the way the obs counters do.
func (o CacheOutcome) String() string {
	switch o {
	case CacheDisabled:
		return "disabled"
	case CacheBypass:
		return "bypass"
	case CacheMiss:
		return "miss"
	case CacheInvalidated:
		return "invalidated"
	case CacheHit:
		return "hit"
	default:
		return fmt.Sprintf("CacheOutcome(%d)", int(o))
	}
}

// CacheKey is the parser configuration half of a cache entry's identity
// (the other half is the source file's content digest). Two runs whose
// keys differ can never serve each other's cached shards.
type CacheKey struct {
	// ParserVersion is the Stage I parser generation (ParserVersion for
	// current binaries; tests vary it to prove config invalidation).
	ParserVersion int
	// Strict is true for the default strict extractor. The lenient
	// extractor bypasses the cache entirely, but the flag is part of the
	// key so a future lenient-caching format cannot collide with strict
	// entries.
	Strict bool
}

// DefaultCacheKey is the key current strict-mode binaries write and read.
func DefaultCacheKey() CacheKey {
	return CacheKey{ParserVersion: ParserVersion, Strict: true}
}

// digest renders the key's canonical digest. The canonical string is
// versioned independently of its fields so adding a field changes every
// digest deliberately, not accidentally.
func (k CacheKey) digest() [digestLen]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("evshard-key/1|parser=%d|strict=%t", k.ParserVersion, k.Strict)))
}

// Cache is a directory of .evshard files, one per (source path, parser
// config). Entries are named by the hash of the source path, so a source
// whose content changes overwrites its own entry instead of leaking stale
// siblings; validity is decided by the digests inside the header.
type Cache struct {
	// Dir is the cache directory, created on first store.
	Dir string
	// Key identifies the parser configuration for every lookup and store.
	Key CacheKey
}

// NewCache returns a cache rooted at dir with the default key.
func NewCache(dir string) *Cache {
	return &Cache{Dir: dir, Key: DefaultCacheKey()}
}

// entryPath maps a source log path to its cache file. The name hashes the
// absolute path so relative invocations from different directories share
// entries for the same file.
func (c *Cache) entryPath(source string) string {
	abs, err := filepath.Abs(source)
	if err != nil {
		abs = source
	}
	sum := sha256.Sum256([]byte(abs))
	return filepath.Join(c.Dir, hex.EncodeToString(sum[:])[:40]+".evshard")
}

// Load looks up the cached shard for source, which currently hashes to
// sourceDigest. It returns (payload, CacheHit) only when the entry's
// format version, source digest, and parser-config digest all match; any
// mismatch or corruption is (nil, CacheInvalidated), a missing entry is
// (nil, CacheMiss). Load never fails the run: a broken cache behaves like
// a cold one.
func (c *Cache) Load(source string, sourceDigest [digestLen]byte) (*Payload, CacheOutcome) {
	data, err := os.ReadFile(c.entryPath(source))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, CacheMiss
		}
		return nil, CacheInvalidated
	}
	p, err := DecodeShard(data)
	if err != nil {
		return nil, CacheInvalidated
	}
	if p.SourceDigest != sourceDigest || p.ConfigDigest != c.Key.digest() {
		return nil, CacheInvalidated
	}
	return p, CacheHit
}

// store writes source's cache entry atomically (temp file + rename): p's
// header fields, stamped with the cache's parser-config digest, and the
// events of segs, read in order as one stream (p.Events is not read). A
// failed store is reported but leaves no partial entry behind.
func (c *Cache) store(source string, p *Payload, segs [][]xid.Event) error {
	p.ConfigDigest = c.Key.digest()
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return fmt.Errorf("ingest: cache dir: %w", err)
	}
	dst := c.entryPath(source)
	tmp, err := os.CreateTemp(c.Dir, filepath.Base(dst)+".tmp*")
	if err != nil {
		return fmt.Errorf("ingest: cache temp: %w", err)
	}
	_, werr := tmp.Write(encodeShard(p, segs))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), dst)
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("ingest: cache store %s: %w", dst, werr)
	}
	return nil
}
