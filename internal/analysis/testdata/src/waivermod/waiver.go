// Package waivermod is the waiverdrift-analyzer corpus: every waiver
// and blocking annotation here is either live (suppresses a real
// finding today — silent) or stale (suppresses nothing — reported).
package waivermod

import (
	"os"
	"sync"
	"time"
)

var mu sync.Mutex

// Live allocok: the append would be a hotpath finding without it.
//
//apollo:hotpath
func HotAppend(dst []byte, s string) []byte {
	dst = append(dst, s...) //apollo:allocok pooled buffer sized by the caller
	return dst
}

// Stale allocok: nothing on this line allocates on a hot path (the
// function is not even hot).
func ColdAppend(dst []byte, s string) []byte {
	dst = append(dst, s...) //apollo:allocok pooled buffer // want `stale //apollo:allocok waiver: it no longer suppresses any diagnostic; delete it`
	return dst
}

// Live line-level lockok: the read really does happen under mu.
func ReadLocked() []byte {
	mu.Lock()
	defer mu.Unlock()
	b, _ := os.ReadFile("state") //apollo:lockok snapshot read, bounded file
	return b
}

// Stale function-level lockok: the body no longer blocks while locked.
//
//apollo:lockok the write moved out of the critical section // want `stale //apollo:lockok waiver: it no longer suppresses any diagnostic; delete it`
func WriteUnlocked(b []byte) {
	mu.Lock()
	n := len(b)
	mu.Unlock()
	_ = os.WriteFile("state", b[:n], 0o644)
}

// Live coldpath: the hot root's traversal stops here.
//
//apollo:hotpath
func HotLookup() *entry { return missFill() }

//apollo:coldpath first-touch fill, amortized away
func missFill() *entry { return &entry{} }

// Stale coldpath: no hot path ever reaches this function.
//
//apollo:coldpath legacy startup shim // want `stale //apollo:coldpath waiver: it no longer suppresses any diagnostic; delete it`
func orphanFill() *entry { return &entry{} }

type entry struct{ n int }

// Truthful blocking: the receive really can block.
//
//apollo:blocking
func Await(ch chan int) int { return <-ch }

// Stale blocking: the body cannot block any more.
//
//apollo:blocking // want `stale //apollo:blocking on waivermod\.Calm: the body cannot block \(no channel op, lock, or blocking call\); remove the annotation`
func Calm() int { return 1 }

func mayErr() error { return nil }

func quietCall() {}

// Live errok: the probe really is fire-and-forget.
func Probe() {
	mayErr() //apollo:errok fire-and-forget warmup probe; failure is harmless
}

// Stale errok: the call returns nothing; there is no error to drop.
func Quiet() {
	quietCall() //apollo:errok left over from the fallible version // want `stale //apollo:errok waiver: it no longer suppresses any diagnostic; delete it`
}

// Live ctxok: the sleep is on a serve root and deliberately flat.
func StartWarm() {
	for i := 0; i < 2; i++ {
		time.Sleep(time.Millisecond) //apollo:ctxok bounded two-iteration warmup wait
	}
}

// Stale ctxok: nothing on this line blocks.
func StartCold() {
	quietCall() //apollo:ctxok left over from the sleeping version // want `stale //apollo:ctxok waiver: it no longer suppresses any diagnostic; delete it`
}

func init() {
	_ = orphanFill
	_ = WriteUnlocked
}
