//go:build unix

package main

import "syscall"

// mapMemory maps fresh memory outside the Go heap. Should the mapping
// fail, the memory comes from the heap, where it only shifts when the
// collector runs.
func mapMemory(bytes int) []byte {
	b, err := syscall.Mmap(-1, 0, bytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, bytes)
	}
	return b
}

// unmapMemory returns memory from mapMemory to the system; memory the
// heap supplied is left to the collector.
func unmapMemory(b []byte) {
	_ = syscall.Munmap(b) // fails only for heap memory, which needs no unmapping
}
