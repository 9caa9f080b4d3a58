package main

import (
	"syscall"
	"unsafe"
)

// offHeap returns an empty slice with room for n elements in anonymous
// memory mapped outside the Go heap. The recorder keeps its bulk
// buffers there so that they neither count toward heap_live_mb nor
// change when the engine's garbage collections run. T must hold no
// pointers. The mapping lives until the process exits; if it cannot be
// made, the slice comes from the heap instead.
func offHeap[T any](n int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero)) * max(n, 1)
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, 0, n)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), max(n, 1))[:0]
}
