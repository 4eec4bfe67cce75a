// Package lockmod is the lockscope-analyzer corpus: blocking work while
// a mutex is held, directly and through module callees, with lockok
// waivers.
package lockmod

import (
	"os"
	"sync"
	"time"
)

var mu sync.Mutex
var rw sync.RWMutex

func DirectIO() {
	mu.Lock()
	_, _ = os.ReadFile("x") // want `file/network I/O os\.ReadFile while mu is held`
	mu.Unlock()
	_, _ = os.ReadFile("x") // after unlock: no finding
}

func DeferredUnlock() {
	mu.Lock()
	defer mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while mu is held`
}

func ChannelUnderLock(ch chan int) {
	rw.Lock()
	ch <- 1 // want `channel send while rw is held`
	rw.Unlock()
}

// Transitive: the callee's I/O is reported at the call site under the
// lock, with the module call path attached.
func ViaHelper() {
	mu.Lock()
	persist() // want `file/network I/O os\.WriteFile \(via lockmod\.persist\)`
	mu.Unlock()
}

func persist() {
	_ = os.WriteFile("x", nil, 0o644)
}

// An //apollo:blocking annotation alone marks a callee unsafe under a
// lock.
//
//apollo:blocking
func waits() {}

func CallsBlocking() {
	mu.Lock()
	waits() // want `call to //apollo:blocking lockmod\.waits while mu is held`
	mu.Unlock()
}

// Function-level waiver: this mutex exists to serialize exactly this
// file write.
//
//apollo:lockok the spool mutex serializes segment writes by design
func Waived() {
	mu.Lock()
	_, _ = os.ReadFile("x")
	mu.Unlock()
}

// Statement-level waiver.
func WaivedLine() {
	mu.Lock()
	_, _ = os.ReadFile("x") //apollo:lockok one-time bootstrap read under the init lock
	mu.Unlock()
}

// Goroutines launched under a lock run later, not under it: no finding.
func SpawnsWorker() {
	mu.Lock()
	go func() { _, _ = os.ReadFile("x") }()
	mu.Unlock()
}

// Pure computation under a lock is fine.
func Quiet() int {
	mu.Lock()
	defer mu.Unlock()
	return 40 + 2
}

// Generic callees: I/O behind a method of an instantiated generic type
// or an explicitly instantiated generic function is still found.

type store[T any] struct{ v T }

func (s *store[T]) save() { _ = os.WriteFile("x", nil, 0o644) }

func load[T any]() (v T) {
	_, _ = os.ReadFile("x")
	return v
}

func ViaGenericCallees(s *store[int]) {
	mu.Lock()
	s.save()        // want `file/network I/O os\.WriteFile \(via`
	_ = load[int]() // want `file/network I/O os\.ReadFile \(via`
	mu.Unlock()
}
