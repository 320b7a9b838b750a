//go:build !unix

package main

import "time"

func sleepPrecise(d time.Duration) { time.Sleep(d) }
