//go:build unix

package obs

import (
	"runtime"
	"syscall"
)

// peakRSSBytes returns the process's peak resident set size, or 0 when the
// platform does not report it. ru_maxrss is kilobytes on Linux/BSD but
// bytes on Darwin.
func peakRSSBytes() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if ru.Maxrss <= 0 {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return uint64(ru.Maxrss)
	}
	return uint64(ru.Maxrss) * 1024
}
