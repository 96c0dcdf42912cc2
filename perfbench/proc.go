package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of the CPU fields in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux the Go runtime supports).
const clockTick = 10 * time.Millisecond

// treeCPU is processCPU plus the CPU of this process's live children — the
// distributed backend's shard workers, whose work is part of a replay pass.
// Children that have exited are not counted; callers diff two readings taken
// while the same children live.
func treeCPU() time.Duration {
	total := processCPU()
	self := strconv.Itoa(os.Getpid())
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name: state ppid ... with
		// utime and stime at positions 12 and 13 of that remainder.
		i := bytes.LastIndexByte(data, ')')
		if i < 0 {
			continue
		}
		f := bytes.Fields(data[i+1:])
		if len(f) < 13 || string(f[1]) != self {
			continue
		}
		ut, _ := strconv.ParseInt(string(f[11]), 10, 64)
		st, _ := strconv.ParseInt(string(f[12]), 10, 64)
		total += time.Duration(ut+st) * clockTick
	}
	return total
}

// rssSampler records the peak resident set size of this process while it
// runs, polling /proc/self/statm. Unlike the kernel's lifetime high-water
// mark it covers only the measured part of a run, not the set-up before it,
// and lap splits that part into intervals.
type rssSampler struct {
	mu         sync.Mutex
	peak       int64 // pages, since the last lap
	stop, done chan struct{}
}

// rssInterval is the sampler's polling period.
const rssInterval = 5 * time.Millisecond

// startRSSSampler starts polling.
func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	n := rssPages()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peak = max(s.peak, n)
}

// lap returns the peak since the previous lap (or the start) and starts a
// new interval. Called with freeFirst, it first returns the heap's garbage
// to the operating system, so the new interval starts from the live heap.
func (s *rssSampler) lap(freeFirst bool) float64 {
	s.sample()
	if freeFirst {
		debug.FreeOSMemory()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := s.peak
	s.peak = 0
	return float64(peak*int64(os.Getpagesize())) / (1 << 20)
}

// close stops the sampler.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// rssPages is the current resident set size in pages.
func rssPages() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return 0
	}
	n, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return n
}
