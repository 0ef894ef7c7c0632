// Package parallel is the shared worker-pool utility behind every concurrent
// code path in the engine: parallel multi-version checkout and partition
// builds (package cvd), the rid-set join probe (package relstore), the
// LyreSplit candidate-evaluation loop (package partition), and the checkpoint
// encoder and the checkpoint load that the open, point-in-time restore and
// fsck share (package durable).
//
// All helpers take an explicit worker count so callers can thread the
// engine-level WithWorkers(n) knob through; n <= 0 selects GOMAXPROCS.
// With one worker (or one item) the helpers run inline on the calling
// goroutine, so single-threaded callers pay no synchronization cost and
// produce byte-identical results to the pre-parallel code paths.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes n <= 0:
// the number of CPUs the scheduler may use.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Normalize clamps a requested worker count to [1, n] for n work items,
// resolving non-positive requests to DefaultWorkers.
func Normalize(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach invokes fn(i) for every i in [0, n) using up to workers goroutines.
// Items are handed out dynamically (an atomic counter), so uneven item costs
// balance across workers. It returns when all items are done.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Normalize(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachErr is ForEach for item functions that can fail. Every item runs to
// completion (no cancellation), and the error of the lowest-indexed failing
// item is returned, making the reported error deterministic regardless of
// scheduling.
func ForEachErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if Normalize(workers, n) == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	ForEach(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map computes fn(i) for every i in [0, n) on up to workers goroutines and
// returns the results in index order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for item functions that can fail. On error the first (lowest
// index) error is returned along with a nil slice.
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachErr(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Chunks splits n items into at most workers contiguous [lo, hi) ranges of
// near-equal size, for data-parallel scans that want one range per worker
// rather than one task per item.
func Chunks(workers, n int) [][2]int {
	if n <= 0 {
		return nil
	}
	workers = Normalize(workers, n)
	out := make([][2]int, 0, workers)
	base := n / workers
	rem := n % workers
	lo := 0
	for w := 0; w < workers; w++ {
		size := base
		if w < rem {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}
