// Package bgtest holds the goroutine-leak check of the daemon and loop tests.
package bgtest

import (
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

var grace = 2 * time.Second // how long a goroutine may outlive its test

// moduleLine matches a stack line naming a function of this module, as a frame or as the creator.
var moduleLine = regexp.MustCompile(`(?m)^(created by )?apollo[/.]`)

// NoLeaks fails t, printing the stacks, if a goroutine of this module
// that was not alive at the call is alive grace after the test has ended.
func NoLeaks(t testing.TB) {
	before := moduleStacks(nil)
	t.Cleanup(func() {
		leaked := moduleStacks(before)
		for deadline := time.Now().Add(grace); len(leaked) > 0 && time.Now().Before(deadline); leaked = moduleStacks(before) {
			time.Sleep(10 * time.Millisecond)
		}
		for _, stack := range leaked {
			t.Errorf("goroutine outlived the test:\n%s", stack)
		}
	})
}

// moduleStacks returns the stack of every live goroutine of this module
// by its "goroutine N" header, but for those in skip.
func moduleStacks(skip map[string]string) map[string]string {
	buf := make([]byte, 1<<20)
	stacks := map[string]string{}
	for _, s := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if id, _, ok := strings.Cut(s, " ["); ok && skip[id] == "" && moduleLine.MatchString(s) {
			stacks[id] = s
		}
	}
	return stacks
}
