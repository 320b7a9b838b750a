//go:build unix

package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the calling OS thread for d in one nanosleep system
// call. On a mostly idle process the runtime timer behind time.Sleep wakes
// about half a millisecond late, which the open-loop generator would add to
// every op's sojourn; the system call wakes within about 0.1 ms.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up is re-slept by the caller
}
