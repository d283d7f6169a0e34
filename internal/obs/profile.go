package obs

import (
	"os"
	"runtime/pprof"
)

// StartCPUProfile starts a runtime/pprof CPU profile written to path, for
// the commands' -cpuprofile diagnostic flag; an empty path profiles nothing.
// The returned stop ends the profile and closes the file, and must run
// before the process exits or the profile is left empty.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
