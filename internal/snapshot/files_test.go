package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "made", "on", "demand")
	if err := WriteFileAtomic(dir, "a.rckp", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(dir, "a.rckp", []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "a.rckp"))
	if err != nil || string(got) != "two" {
		t.Fatalf("read back %q, %v; want \"two\"", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after two writes, want only the target", len(entries))
	}
	// A target the temp file cannot be created next to fails cleanly.
	if err := WriteFileAtomic(filepath.Join(dir, "a.rckp"), "b", nil); err == nil {
		t.Error("write under a regular file succeeded")
	}
}

// TestWriteFileAtomicFullDisk fails the write the way a full disk does:
// the temp file is a symlink to /dev/full, whose every write returns
// ENOSPC. The error must say so, the previous target must be intact,
// and no .tmp may be left behind.
func TestWriteFileAtomicFullDisk(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	dir := t.TempDir()
	if err := WriteFileAtomic(dir, "a.rckp", []byte("previous")); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "a.rckp.tmp")
	if err := os.Symlink("/dev/full", tmp); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(dir, "a.rckp", []byte("new checkpoint"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "a.rckp")); err != nil || string(got) != "previous" {
		t.Errorf("target reads %q, %v after the failed write; want the previous bytes", got, err)
	}
	if _, err := os.Lstat(tmp); !os.IsNotExist(err) {
		t.Errorf("%s left behind after the failed write (lstat: %v)", filepath.Base(tmp), err)
	}
}

// TestNewestValid pins the resume scan every front end shares: newest
// first, corrupt files counted and skipped for older ones, mismatched
// files skipped uncounted, anything but the asked extension (a stray
// .tmp from a crashed write, a subdirectory) never offered.
func TestNewestValid(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"ckpt-0-01.rckp":     "good old",
		"ckpt-0-02.rckp":     "good",
		"ckpt-0-03.rckp":     "other run",
		"ckpt-0-04.rckp":     "corrupt",
		"ckpt-0-05.rckp.tmp": "good but torn",
		"search-0009.ropt":   "good",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "ckpt-9-99.rckp"), 0o755); err != nil {
		t.Fatal(err)
	}
	errBad := errors.New("bad")
	var offered []string
	var taken string
	corrupt, err := NewestValid(dir, ".rckp", func(name string, data []byte) (bool, error) {
		offered = append(offered, name)
		switch {
		case bytes.HasPrefix(data, []byte("good")):
			taken = name
			return true, nil
		case string(data) == "corrupt":
			return false, errBad
		}
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if taken != "ckpt-0-02.rckp" {
		t.Errorf("took %q, want the newest valid ckpt-0-02.rckp", taken)
	}
	if corrupt != 1 {
		t.Errorf("corrupt = %d, want 1 (the mismatched file is not corrupt)", corrupt)
	}
	if want := []string{"ckpt-0-04.rckp", "ckpt-0-03.rckp", "ckpt-0-02.rckp"}; !slices.Equal(offered, want) {
		t.Errorf("offered %v, want %v", offered, want)
	}

	// Nothing acceptable: every candidate offered, none taken.
	taken = ""
	corrupt, err = NewestValid(dir, ".rckp", func(name string, data []byte) (bool, error) {
		return false, errBad
	})
	if err != nil || corrupt != 4 || taken != "" {
		t.Errorf("all-corrupt scan: corrupt=%d err=%v taken=%q, want 4, nil, none", corrupt, err, taken)
	}

	// A missing directory is an error the caller can tell from "empty".
	if _, err := NewestValid(filepath.Join(dir, "absent"), ".rckp", nil); !os.IsNotExist(err) {
		t.Errorf("missing directory: err = %v, want not-exist", err)
	}
}
