package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStartProfilesWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", filepath.Base(p), err)
		}
	}
}

// A profile path that cannot be created is refused before the run starts,
// naming the flag; main turns the error into a non-zero exit.
func TestStartProfilesRefusesUncreatableFile(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "x.prof")
	for flag, args := range map[string][2]string{
		"-cpuprofile": {bad, ""},
		"-memprofile": {"", bad},
	} {
		if _, err := startProfiles(args[0], args[1]); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s %s: err = %v, want an error naming the flag", flag, bad, err)
		}
	}
	if stop, err := startProfiles("", ""); err != nil || stop(nil) != nil {
		t.Errorf("no profiles asked for: err = %v, want a no-op", err)
	}
}
