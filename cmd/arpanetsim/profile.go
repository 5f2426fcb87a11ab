package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles creates the -cpuprofile and -memprofile files (an empty
// path means not asked for) before the run, so a path that cannot be
// written is refused up front, and starts the CPU profile. The returned
// stop ends the CPU profile and writes the heap profile after a GC. It
// keeps live reachable until then: a simulator that has gone out of scope
// is garbage by that GC, and what it retained — the thing inuse_space is
// read for — would be missing from the profile.
func startProfiles(cpuPath, memPath string) (stop func(live any) error, err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			pprof.StopCPUProfile() // a no-op when none is running
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	return func(live any) error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if mem == nil {
			return nil
		}
		runtime.GC()
		err := pprof.WriteHeapProfile(mem)
		runtime.KeepAlive(live)
		if cerr := mem.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		return nil
	}, nil
}
