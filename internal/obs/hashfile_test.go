package obs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gpuresilience/internal/obs"
)

// TestHashFileBytes: HashFile gives the content's digest and allocates only
// the file handle and the digest, not a read buffer per file (io.Copy's
// path through os.File allocated 32 KiB for each).
func TestHashFileBytes(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef\n"), 10_000) // 170 KB: several buffer fills
	path := filepath.Join(t.TempDir(), "shard.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	want := obs.FileDigest{Bytes: int64(len(data)), SHA256: hex.EncodeToString(sum[:])}
	if got, err := obs.HashFile(path); err != nil || got != want {
		t.Fatalf("HashFile = %+v, %v; want %+v", got, err, want)
	}
	empty := filepath.Join(t.TempDir(), "empty.log")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := obs.HashFile(empty); err != nil || got.Bytes != 0 ||
		got.SHA256 != "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" {
		t.Fatalf("HashFile of an empty file = %+v, %v", got, err)
	}
	if _, err := obs.HashFile(filepath.Join(t.TempDir(), "missing")); !os.IsNotExist(err) {
		t.Fatalf("HashFile on a missing file: %v", err)
	}

	if raceEnabled {
		t.Skip("the race detector moves the read buffer to the heap")
	}
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := obs.HashFile(path); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 2048 {
		t.Errorf("HashFile allocates %d B per file, want under 2 KiB", per)
	}
}
