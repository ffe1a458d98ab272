package snapshot

import (
	"os"
	"path/filepath"
	"sort"
)

// Checkpoint files on disk. Every front end that persists a container
// (resurvey's -snapshot-dir, reoptimize's search states, resurveyd's
// job manifests and per-job checkpoints) writes through WriteFileAtomic
// and resumes through NewestValid; callers keep only their file naming,
// their stderr notes and their corrupt counters.

// WriteFileAtomic writes data to dir/name (creating dir if needed) so
// that a crash at any instant leaves either the previous file or the
// complete new one: the bytes go to dir/name.tmp, are fsynced, and only
// then renamed over the target. Without the fsync a power loss can
// persist the rename before the data and leave an empty file. A write,
// sync, close or rename that fails removes dir/name.tmp, so a full disk
// is not left holding a partial file on top.
func WriteFileAtomic(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		// Best effort: the write's error is the one the caller acts on.
		_ = os.Remove(f.Name())
	}
	return err
}

// NewestValid offers dir's regular files with extension ext to accept,
// newest first, until accept takes one. Names must sort
// chronologically (ckpt-<phase>-<done>, search-<generation>). accept
// returns an error for a file it cannot decode and false for one that
// decodes but belongs to a different run; both are skipped in favour
// of the next older file, and when every file is skipped accept has
// taken none. corrupt counts the undecodable files, an unreadable one
// included; err is the directory read error (a missing directory
// included).
func NewestValid(dir, ext string, accept func(name string, data []byte) (bool, error)) (corrupt int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var names []string
	for _, ent := range entries {
		if !ent.IsDir() && filepath.Ext(ent.Name()) == ext {
			names = append(names, ent.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			corrupt++
			continue
		}
		ok, err := accept(name, data)
		if err != nil {
			corrupt++
		} else if ok {
			break
		}
	}
	return corrupt, nil
}
