// Package hotpathmod is the hotpath-analyzer corpus: every line marked
// "want" must produce exactly that diagnostic, and unmarked code must
// stay silent.
package hotpathmod

import (
	"fmt"
	"sync"
	"time"
)

var mu sync.Mutex

// Direct violations in an annotated root.
//
//apollo:hotpath
func DirectViolations(ch chan int) {
	_ = time.Now()       // want `calls time\.Now on the hot path`
	b := make([]byte, 8) // want `make allocates on the hot path`
	_ = b
	mu.Lock()        // want `acquires sync\.Mutex \(Lock\) on the hot path`
	mu.Unlock()      // want `acquires sync\.Mutex \(Unlock\) on the hot path`
	fmt.Println()    // want `calls fmt\.Println on the hot path`
	ch <- 1          // want `channel send on the hot path`
	<-ch             // want `channel receive on the hot path`
	s := []int{1, 2} // want `slice literal allocates on the hot path`
	_ = s
	p := &point{x: 1} // want `&hotpathmod\.point literal allocates on the hot path`
	_ = p
}

type point struct{ x, y int }

// Transitive violation: the diagnostic lands in the callee with a call
// chain back to the root.
//
//apollo:hotpath
func Transitive() { helper() }

func helper() {
	_ = time.Now() // want `calls time\.Now on the hot path`
}

// Interface dispatch: the analyzer must follow the call onto every
// module-local concrete implementation.

type doer interface{ do() }

type clockDoer struct{}

func (clockDoer) do() {
	_ = time.Now() // want `calls time\.Now on the hot path`
}

type quietDoer struct{ n int }

func (d quietDoer) do() { d.n++ }

//apollo:hotpath
func Dispatch(d doer) { d.do() }

// Method value bound to a local: still resolved statically.
//
//apollo:hotpath
func MethodValue(c clockDoer) {
	f := c.do
	f()
}

// Blocking functions are banned from hot paths by annotation alone.
//
//apollo:blocking
func waits() {}

//apollo:hotpath
func CallsBlocking() {
	waits() // want `calls //apollo:blocking function hotpathmod\.waits`
}

// A coldpath annotation stops traversal: rare() may allocate freely.
//
//apollo:hotpath
func WithColdCall() { rare() }

//apollo:coldpath exercised only on the first launch of a kernel
func rare() *point {
	return &point{x: 2}
}

// An allocok line directive waives one finding with a recorded reason.
//
//apollo:hotpath
func WithWaivedAlloc(dst []byte, s string) []byte {
	dst = append(dst, s...) //apollo:allocok pooled buffer sized by the caller
	return dst
}

// Boxing a concrete value into an interface allocates.
//
//apollo:hotpath
func Boxes(n int) any {
	var a any = n // want `int boxed into any allocates on the hot path`
	return a
}

// Capturing closures allocate; non-capturing ones do not.
//
//apollo:hotpath
func Captures(n int) func() int {
	f := func() int { return n } // want `closure captures \[n\] and allocates on the hot path`
	return f
}

// Bodyless declarations (runtime symbols bound via //go:linkname, or
// assembly implementations) have no statements to walk and must pass
// silently — this is how hot code gets a monotonic clock without the
// banned time.Now.
//
//go:linkname clocknano runtime.nanotime
func clocknano() int64

//apollo:hotpath
func CallsBodyless() int64 { return clocknano() }

// Clean hot path: nothing here may be reported.
//
//apollo:hotpath
func Clean(x []float64) float64 {
	var sum float64
	for _, v := range x {
		sum += v
	}
	mustBeQuiet := func() int { return 3 } // non-capturing: no allocation
	_ = mustBeQuiet()
	return sum
}

// Generic callees: a method of an instantiated generic type and an
// explicitly instantiated generic function are distinct objects from
// their declarations; the traversal must still land on the declared
// bodies.

type queue[T any] struct{ items []T }

func (q *queue[T]) reserve() *T {
	q.items = make([]T, 1) // want `make allocates on the hot path`
	return &q.items[0]
}

func grow[T any](n int) []T {
	return make([]T, n) // want `make allocates on the hot path`
}

//apollo:hotpath
func GenericCallees(q *queue[int]) {
	_ = q.reserve()
	_ = grow[float64](4)
}
