package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// DiskStore persists each job as one JSON snapshot file (<id>.json) in a
// directory, giving a Manager restart survival: a new Manager over the
// same directory re-indexes every finished job, re-queues interrupted
// ones, and resumes checkpointed analyses bitwise identically.
//
// Writes are atomic (temp file + rename), so a crash mid-write leaves the
// previous snapshot intact. Files that fail to parse are quarantined —
// renamed to <name>.corrupt and skipped, never fatal — so one torn or
// hand-mangled record cannot take the whole store down; CorruptFiles
// counts them.
type DiskStore struct {
	dir     string
	mu      sync.Mutex
	corrupt atomic.Uint64
}

// NewDiskStore opens (creating if needed) the snapshot directory.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: disk store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the snapshot directory.
func (s *DiskStore) Dir() string { return s.dir }

// Healthy reports whether the snapshot directory is still a reachable
// directory (it can disappear after open: an unmounted volume, a deleted
// tree). Implements HealthChecker for Manager.Ready.
func (s *DiskStore) Healthy() error {
	info, err := os.Stat(s.dir)
	if err != nil {
		return fmt.Errorf("jobs: disk store: %w", err)
	}
	if !info.IsDir() {
		return fmt.Errorf("jobs: disk store: %s is not a directory", s.dir)
	}
	return nil
}

// CorruptFiles counts snapshot files quarantined because they failed to
// parse (since this store was opened).
func (s *DiskStore) CorruptFiles() uint64 { return s.corrupt.Load() }

// path maps a job id onto its snapshot file, rejecting ids that could
// escape the directory (the Manager only generates hex ids; this guards
// direct Store users).
func (s *DiskStore) path(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, `/\`) || strings.Contains(id, "..") {
		return "", fmt.Errorf("jobs: disk store: invalid job id %q", id)
	}
	return filepath.Join(s.dir, id+".json"), nil
}

func (s *DiskStore) Put(rec *Record) error {
	path, err := s.path(rec.ID)
	if err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: disk store: encoding %s: %w", rec.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := writeAtomic(path, data); err != nil {
		return fmt.Errorf("jobs: disk store: writing %s: %w", rec.ID, err)
	}
	return nil
}

// writeTemp writes data to a new dot-named temp file beside path (every
// directory scan skips dot files) and returns the temp file's name. On
// error it leaves no file behind.
func writeTemp(path string, data []byte) (string, error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return "", err
	}
	_, werr := f.Write(data)
	if err := errors.Join(werr, f.Close()); err != nil {
		_ = os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// writeAtomic replaces path with data through a temp file and a rename,
// so a reader or a crash sees the old file or the new one, never a torn
// one.
func writeAtomic(path string, data []byte) error {
	tmp, err := writeTemp(path, data)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

func (s *DiskStore) Get(id string) (*Record, bool, error) {
	path, err := s.path(id)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, err := s.read(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		// Quarantined as corrupt: absent, not fatal.
		return nil, false, nil
	}
	return rec, true, nil
}

func (s *DiskStore) Delete(id string) error {
	path, err := s.path(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("jobs: disk store: %w", err)
	}
	return nil
}

func (s *DiskStore) List() ([]*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: disk store: %w", err)
	}
	var out []*Record
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		rec, err := s.read(filepath.Join(s.dir, name))
		if err != nil {
			continue // quarantined (or vanished) — recovery must not abort
		}
		out = append(out, rec)
	}
	return out, nil
}

// read loads and validates one snapshot, quarantining it on parse
// failure. Callers hold s.mu.
func (s *DiskStore) read(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err == nil && rec.ID != "" && rec.Kind != "" {
		return &rec, nil
	}
	// Unparseable or structurally empty: move it aside so every future
	// scan does not re-read garbage, and keep the bytes for post-mortems.
	s.corrupt.Add(1)
	if renameErr := os.Rename(path, path+".corrupt"); renameErr != nil {
		_ = os.Remove(path)
	}
	return nil, fmt.Errorf("jobs: disk store: corrupt snapshot %s", filepath.Base(path))
}
