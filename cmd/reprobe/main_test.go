package main

import (
	"os"

	"path/filepath"
	"repro/internal/cliconf"
	"repro/internal/core"
	"testing"
)

func TestRunProducesJSON(t *testing.T) {
	// Redirect stdout to a file and run one round.
	tmp := filepath.Join(t.TempDir(), "out.json")
	f, err := os.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	err = run(cliconf.Config{JobOptions: core.JobOptions{Small: true, Seed: 1, Workers: 2}}, "0-2", "internet2")
	os.Stdout = old
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("no JSON produced")
	}
	for _, want := range []string{`"config":"0-2"`, `"rx_ifname"`, `"src":"163.253.63.63"`} {
		if !containsStr(string(data), want) {
			t.Errorf("output missing %s", want)
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	if err := run(cliconf.Config{JobOptions: core.JobOptions{Small: true, Seed: 1}}, "9-9", "internet2"); err == nil {
		t.Error("bad config accepted")
	}
	if err := run(cliconf.Config{JobOptions: core.JobOptions{Small: true, Seed: 1}}, "0-0", "marsnet"); err == nil {
		t.Error("bad experiment accepted")
	}
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
