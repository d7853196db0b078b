package resultcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"rdramstream/internal/sim"
)

// diskStore persists one JSON file per key under a directory. Writes go
// through a temp file + rename so concurrent processes sharing the
// directory never observe a torn entry; a rename either fully lands the
// entry or leaves the previous state.
type diskStore struct {
	dir string
}

// diskEntry is the on-disk schema, as load decodes it; save writes the
// same fields as an Envelope. Key and Version are stored redundantly so
// an entry is self-describing: a file copied between machines or left
// behind by an older build identifies itself and is skipped on mismatch.
type diskEntry struct {
	Key     string      `json:"key"`
	Version string      `json:"version"`
	Outcome sim.Outcome `json:"outcome"`
}

func newDiskStore(dir string) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &diskStore{dir: dir}, nil
}

func (d *diskStore) path(key string) string {
	return filepath.Join(d.dir, key+".json")
}

// load reads the entry for key, reporting ok=false (not an error) when the
// file is absent or stamped by a different build version.
func (d *diskStore) load(key, vstamp string) (sim.Outcome, bool, error) {
	data, err := os.ReadFile(d.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return sim.Outcome{}, false, nil
	}
	if err != nil {
		return sim.Outcome{}, false, err
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return sim.Outcome{}, false, fmt.Errorf("resultcache: corrupt entry %s: %w", d.path(key), err)
	}
	if e.Key != key || e.Version != vstamp {
		return sim.Outcome{}, false, nil
	}
	return e.Outcome, true, nil
}

// save writes the entry atomically: an Envelope of its key and version
// around the outcome's encoding (Result.JSON), which must not be nil.
func (d *diskStore) save(key, vstamp string, frag []byte) error {
	if frag == nil {
		return ErrNoEncoding
	}
	data := Envelope(make([]byte, 0, len(frag)+len(key)+len(vstamp)+64)).
		Str("key", key).Str("version", vstamp).Outcome(frag)
	tmp, err := os.CreateTemp(d.dir, "."+key+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
