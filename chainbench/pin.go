package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// benchCPUs is how many CPUs every run uses, whatever the host has: the
// workloads run at most two clients, and on a wider host more Ps only
// add cross-CPU wake-ups whose cost depends on where the kernel puts
// each thread, which makes whole runs fast or slow at random.
const benchCPUs = 2

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) list() []int {
	var cpus []int
	for w, word := range m {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			cpus = append(cpus, w*64+b)
			word &^= 1 << b
		}
	}
	return cpus
}

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinCPUs restricts the process to the first n CPUs it may run on and
// sets GOMAXPROCS to match. Affinity is per thread, so it is set on
// every thread the runtime has started; threads started later inherit
// it. It returns the CPUs the process had before and the ones it keeps.
func pinCPUs(n int) (had, kept []int, err error) {
	m, err := getAffinity()
	if err != nil {
		return nil, nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	had = m.list()
	kept = had
	if len(kept) > n {
		kept = kept[:n]
	}
	var want cpuMask
	for _, c := range kept {
		want[c/64] |= 1 << (c % 64)
	}
	// A thread may start while the list is read; a second pass that
	// finds no new thread means every thread is pinned.
	pinned := map[int]bool{}
	for {
		tids, err := threadIDs()
		if err != nil {
			return nil, nil, err
		}
		fresh := 0
		for _, tid := range tids {
			if pinned[tid] {
				continue
			}
			if err := setAffinity(tid, &want); err != nil && err != syscall.ESRCH {
				return nil, nil, fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
			pinned[tid] = true
			fresh++
		}
		if fresh == 0 {
			break
		}
	}
	runtime.GOMAXPROCS(len(kept))
	return had, kept, nil
}

// threadIDs lists the process's threads.
func threadIDs() ([]int, error) {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, err
	}
	tids := make([]int, 0, len(ents))
	for _, e := range ents {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			tids = append(tids, tid)
		}
	}
	return tids, nil
}
