//go:build !unix

package main

// mapMemory takes the probe's memory from the heap where it cannot be
// mapped outside it.
func mapMemory(bytes int) []byte { return make([]byte, bytes) }

func unmapMemory([]byte) {}
