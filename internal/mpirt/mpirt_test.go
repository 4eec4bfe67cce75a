package mpirt

import (
	"testing"

	"apollo/internal/caliper"
	"apollo/internal/raja"
)

func fakeLaunch(t *Timer, ann *caliper.Annotations, rank int, ns float64) {
	ann.Set("rank", float64(rank))
	k := raja.NewKernel("k", nil)
	t.End(k, raja.NewRange(0, 10), raja.Params{}, ns)
}

func TestStepBarrierTakesMaxRank(t *testing.T) {
	ann := caliper.New()
	tm := NewTimer(nil, ann, 4)
	fakeLaunch(tm, ann, 0, 100)
	fakeLaunch(tm, ann, 1, 300)
	fakeLaunch(tm, ann, 1, 200) // rank 1 total: 500
	fakeLaunch(tm, ann, 3, 50)
	tm.StepBarrier(0)
	want := 500 + tm.commNS()
	if got := tm.TotalNS(); got != want {
		t.Errorf("TotalNS = %g, want %g", got, want)
	}
	if tm.Steps() != 1 {
		t.Errorf("Steps = %d", tm.Steps())
	}
}

func TestBarrierResetsAccumulators(t *testing.T) {
	ann := caliper.New()
	tm := NewTimer(nil, ann, 2)
	fakeLaunch(tm, ann, 0, 100)
	tm.StepBarrier(0)
	if tm.PendingNS() != 0 {
		t.Error("accumulators not reset")
	}
	fakeLaunch(tm, ann, 1, 40)
	if tm.PendingNS() != 40 {
		t.Errorf("PendingNS = %g", tm.PendingNS())
	}
}

func TestExtraWorkIsPartitioned(t *testing.T) {
	ann := caliper.New()
	tm := NewTimer(nil, ann, 8)
	tm.StepBarrier(800)
	want := 100 + tm.commNS() // 800 / 8 ranks
	if got := tm.TotalNS(); got != want {
		t.Errorf("TotalNS = %g, want %g", got, want)
	}
}

func TestSingleRankHasNoComm(t *testing.T) {
	tm := NewTimer(nil, caliper.New(), 1)
	if tm.commNS() != 0 {
		t.Error("1-rank run should have no communication cost")
	}
}

func TestCommGrowsWithRanks(t *testing.T) {
	a := NewTimer(nil, caliper.New(), 16)
	b := NewTimer(nil, caliper.New(), 256)
	if b.commNS() <= a.commNS() {
		t.Error("communication cost should grow with rank count")
	}
}

func TestOutOfRangeRankClamps(t *testing.T) {
	ann := caliper.New()
	tm := NewTimer(nil, ann, 2)
	fakeLaunch(tm, ann, 99, 100) // invalid -> rank 0
	tm.StepBarrier(0)
	if tm.TotalNS() != 100+tm.commNS() {
		t.Error("invalid rank not clamped to 0")
	}
}

type recHooks struct {
	begins, ends int
}

func (h *recHooks) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	h.begins++
	return raja.Params{Policy: raja.SeqExec}, true
}

func (h *recHooks) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, ns float64) {
	h.ends++
}

func TestDelegatesToInner(t *testing.T) {
	ann := caliper.New()
	inner := &recHooks{}
	tm := NewTimer(inner, ann, 2)
	k := raja.NewKernel("k", nil)
	if p, ok := tm.Begin(k, raja.NewRange(0, 5)); !ok || p.Policy != raja.SeqExec {
		t.Error("Begin not delegated")
	}
	tm.End(k, raja.NewRange(0, 5), raja.Params{}, 10)
	if inner.begins != 1 || inner.ends != 1 {
		t.Error("inner hooks not called")
	}
}

func TestMoreRanksFasterForBalancedWork(t *testing.T) {
	// 64 equal patches: 8 ranks should beat 2 ranks on kernel time.
	run := func(ranks int) float64 {
		ann := caliper.New()
		tm := NewTimer(nil, ann, ranks)
		for p := 0; p < 64; p++ {
			fakeLaunch(tm, ann, p%ranks, 1e6)
		}
		tm.StepBarrier(0)
		return tm.TotalNS()
	}
	if run(8) >= run(2) {
		t.Error("8 ranks should be faster than 2 for balanced work")
	}
}

// Step charges what the hooks saw to its ranks and partitions the rest of
// the clock's advance; a clock that advanced less than the hooks saw
// partitions nothing.
func TestStepSplitsHookedFromUnhookedWork(t *testing.T) {
	ann := caliper.New()
	tm := NewTimer(nil, ann, 4)
	clock := 1000.0
	tm.Step(func() float64 { return clock }, func() {
		fakeLaunch(tm, ann, 0, 100)
		fakeLaunch(tm, ann, 2, 300)
		clock += 400 + 800 // the two launches, then 800 ns no hook saw
	})
	want := 300 + 800.0/4 + tm.commNS()
	if got := tm.TotalNS(); got != want || tm.Steps() != 1 || tm.PendingNS() != 0 {
		t.Errorf("after one step: total %g (want %g), %d steps, %g pending", got, want, tm.Steps(), tm.PendingNS())
	}
	tm.Step(func() float64 { return clock }, func() { fakeLaunch(tm, ann, 1, 50) })
	if got := tm.TotalNS(); got != want+50+tm.commNS() {
		t.Errorf("a step on a stopped clock partitioned %g ns", got-want-50-tm.commNS())
	}
}
