package main

import (
	"errors"
	"syscall"
	"time"
	"unsafe"
)

// sampleCap bounds one client's recorded requests: far above what two
// clients complete in a minute, and only the pages actually written are
// backed by memory.
const sampleCap = 1 << 26

// kindShift packs an op kind above a latency in one sample word.
const kindShift = 58

// sampleLog records one client's request latencies, every one of them,
// in anonymous mmap'd memory outside the Go heap. Kept on the heap, the
// samples of a hot-serve run (millions of them) would grow the live heap
// the GC paces against as the run goes on, so GC work per request — one
// of the things the benchmark measures — would drift within the run.
type sampleLog struct {
	mem   []byte
	words []uint64
	n     int
}

func newSampleLog() (*sampleLog, error) {
	mem, err := syscall.Mmap(-1, 0, sampleCap*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, err
	}
	return &sampleLog{mem: mem, words: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), sampleCap)}, nil
}

var errSamplesFull = errors.New("sample log full")

func (l *sampleLog) add(k opKind, d time.Duration) error {
	if l.n == len(l.words) {
		return errSamplesFull
	}
	l.words[l.n] = uint64(k)<<kindShift | uint64(d)
	l.n++
	return nil
}

// appendTo appends the recorded latencies to dst by kind.
func (l *sampleLog) appendTo(dst *[numKinds][]time.Duration) {
	for _, w := range l.words[:l.n] {
		k := w >> kindShift
		dst[k] = append(dst[k], time.Duration(w&(1<<kindShift-1)))
	}
}

func (l *sampleLog) close() error {
	err := syscall.Munmap(l.mem)
	l.mem, l.words = nil, nil
	return err
}
