package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
)

// FileDigest records one input (or output) artifact's size and content
// hash, so a manifest pins the exact bytes a run consumed.
type FileDigest struct {
	// Bytes is the artifact's length.
	Bytes int64 `json:"bytes"`
	// SHA256 is the lowercase hex content hash.
	SHA256 string `json:"sha256"`
}

// RunManifest is a run's provenance record: everything needed to reproduce
// its outputs byte-for-byte. The regression harness (internal/obs/regress)
// replays a manifest and asserts Tables I-III come back identical.
type RunManifest struct {
	// Tool is the CLI or harness that produced the run.
	Tool string `json:"tool"`
	// GoVersion is runtime.Version() at run time.
	GoVersion string `json:"goVersion,omitempty"`
	// Seed and Scale identify a simulated run; both are omitted when the
	// run analyzed external inputs (the Files digests pin those instead).
	Seed uint64 `json:"seed,omitempty"`
	// Scale is the dataset scale factor of a simulated run.
	Scale float64 `json:"scale,omitempty"`
	// Workers is the resolved worker count the run used. Every table and
	// figure is worker-count-invariant, so this is informational, not a
	// reproducibility requirement.
	Workers int `json:"workers"`
	// Pipeline is the full PipelineConfig the run used (core.PipelineConfig
	// marshaled; kept as any to keep this package dependency-free).
	Pipeline any `json:"pipeline,omitempty"`
	// Files digests the run's input artifacts by name.
	Files map[string]FileDigest `json:"files,omitempty"`
}

// NewRunManifest returns a manifest stamped with the current go version.
func NewRunManifest(tool string) *RunManifest {
	return &RunManifest{
		Tool:      tool,
		GoVersion: runtime.Version(),
		Files:     make(map[string]FileDigest),
	}
}

// AddFile records one input artifact's digest. No-op on nil.
func (m *RunManifest) AddFile(name string, d FileDigest) {
	if m == nil {
		return
	}
	if m.Files == nil {
		m.Files = make(map[string]FileDigest)
	}
	m.Files[name] = d
}

// WriteText renders the manifest as the human-readable block the CLIs'
// -metrics flag prints.
func (m *RunManifest) WriteText(w io.Writer) error {
	if m == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "=== Run manifest ===\ntool      %s\ngo        %s\n",
		m.Tool, m.GoVersion); err != nil {
		return err
	}
	if m.Seed != 0 || m.Scale != 0 {
		if _, err := fmt.Fprintf(w, "seed      %d\nscale     %g\n", m.Seed, m.Scale); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "workers   %d\n", m.Workers); err != nil {
		return err
	}
	if m.Pipeline != nil {
		pj, err := json.Marshal(m.Pipeline)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "pipeline  %s\n", pj); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(m.Files))
	for name := range m.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := m.Files[name]
		if _, err := fmt.Fprintf(w, "file      %s  bytes=%d  sha256=%s\n",
			name, d.Bytes, d.SHA256); err != nil {
			return err
		}
	}
	return nil
}

// HashingReader wraps a stream, computing its SHA-256 and length as it is
// consumed — how the CLIs digest file inputs without a second pass.
type HashingReader struct {
	r io.Reader
	h hash.Hash
	n int64
}

// NewHashingReader returns a reader that digests r as it is read.
func NewHashingReader(r io.Reader) *HashingReader {
	h := sha256.New()
	return &HashingReader{r: io.TeeReader(r, h), h: h}
}

// Read implements io.Reader. A nil reader reports EOF.
func (h *HashingReader) Read(p []byte) (int, error) {
	if h == nil {
		return 0, io.EOF
	}
	n, err := h.r.Read(p)
	h.n += int64(n)
	return n, err
}

// Digest returns the size and SHA-256 of everything read so far; the zero
// digest on nil.
func (h *HashingReader) Digest() FileDigest {
	if h == nil {
		return FileDigest{}
	}
	return FileDigest{Bytes: h.n, SHA256: hex.EncodeToString(h.h.Sum(nil))}
}

// HashFile streams one file through SHA-256, without retaining its bytes,
// and returns its digest.
func HashFile(path string) (FileDigest, error) {
	f, err := os.Open(path)
	if err != nil {
		return FileDigest{}, err
	}
	defer f.Close()
	h := sha256.New()
	var total int64
	// The read buffer does not escape, so it lives on the calling
	// goroutine's stack: a worker hashing many files reuses it and the
	// heap sees none. io.Copy instead reaches os.File's generic WriteTo,
	// which allocates a 32 KiB buffer for every file.
	var buf [32 << 10]byte
	for {
		n, err := f.Read(buf[:])
		h.Write(buf[:n])
		total += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return FileDigest{}, err
		}
	}
	return FileDigest{Bytes: total, SHA256: hex.EncodeToString(h.Sum(nil))}, nil
}

// CountingReader wraps a stream and atomically counts the bytes read — the
// cheap sibling of HashingReader for when only throughput accounting is
// wanted (e.g. a span's bytes field on generated input).
type CountingReader struct {
	r io.Reader
	n atomic.Int64
}

// NewCountingReader returns a byte-counting wrapper around r.
func NewCountingReader(r io.Reader) *CountingReader {
	return &CountingReader{r: r}
}

// Read implements io.Reader. A nil reader reports EOF.
func (c *CountingReader) Read(p []byte) (int, error) {
	if c == nil {
		return 0, io.EOF
	}
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// N returns the bytes read so far; 0 on nil.
func (c *CountingReader) N() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}
