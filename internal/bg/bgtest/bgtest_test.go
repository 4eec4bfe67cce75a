package bgtest

import (
	"strings"
	"testing"
	"time"
)

// recorder stands in for the *testing.T of a test under NoLeaks: it keeps
// the cleanup NoLeaks registers and what that cleanup reports.
type recorder struct {
	testing.TB
	cleanups []func()
	errors   []string
}

func (r *recorder) Cleanup(f func()) { r.cleanups = append(r.cleanups, f) }

func (r *recorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, strings.TrimSpace(format)+" "+args[0].(string))
}

// finish ends the recorded test: its cleanups run, last registered first.
func (r *recorder) finish() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

// leak parks a goroutine of this module until release is closed.
func leak(release <-chan struct{}) { <-release }

// TestNoLeaksFailsOnALeakedGoroutine is the check's self-test: a
// goroutine started after the call and still alive past the grace fails
// the test with its stack; one that was alive before the call, or that
// ends within the grace, does not.
func TestNoLeaksFailsOnALeakedGoroutine(t *testing.T) {
	defer func(d time.Duration) { grace = d }(grace)
	grace = 50 * time.Millisecond

	older := make(chan struct{})
	defer close(older)
	go leak(older) // alive before the check starts: not its business

	clean := &recorder{TB: t}
	NoLeaks(clean)
	brief := make(chan struct{})
	go leak(brief)
	time.AfterFunc(10*time.Millisecond, func() { close(brief) }) // gone within the grace
	clean.finish()
	if len(clean.errors) != 0 {
		t.Fatalf("a test that leaks nothing failed:\n%s", strings.Join(clean.errors, "\n"))
	}

	leaky := &recorder{TB: t}
	NoLeaks(leaky)
	release := make(chan struct{})
	defer close(release)
	go leak(release)
	start := time.Now()
	leaky.finish()
	if len(leaky.errors) != 1 || !strings.Contains(leaky.errors[0], "bgtest.leak") {
		t.Fatalf("want one report carrying the leaked goroutine's stack, got %q", leaky.errors)
	}
	if waited := time.Since(start); waited < grace {
		t.Errorf("the leak was reported after %v, before the grace of %v was over", waited, grace)
	}
}
