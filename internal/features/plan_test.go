package features_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"apollo/internal/app"
	"apollo/internal/ares"
	"apollo/internal/caliper"
	"apollo/internal/cleverleaf"
	"apollo/internal/features"
	"apollo/internal/instmix"
	"apollo/internal/lulesh"
	"apollo/internal/platform"
	"apollo/internal/raja"
)

// sameBits reports whether two vectors are bit-for-bit identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffCase is one (schema, blackboard) pairing the differential hook
// extracts on every launch.
type diffCase struct {
	name   string
	schema *features.Schema
	ann    *caliper.Annotations
}

// diffHooks holds the compiled plan to the reference oracle inside End,
// on every launch an application makes.
type diffHooks struct {
	t        *testing.T
	cases    []diffCase
	other    *caliper.Annotations // second blackboard, churned by the hook itself
	launches int
	sites    map[*raja.Kernel]bool
	buf      []float64
}

func (h *diffHooks) Begin(*raja.Kernel, *raja.IndexSet) (raja.Params, bool) {
	return raja.Params{}, false
}

// churn walks the second blackboard through every kind of write — Set,
// nested Begin/End scopes, Clear — on a fixed schedule of launches.
func (h *diffHooks) churn() {
	n := float64(h.launches)
	switch h.launches % 11 {
	case 0:
		h.other.Set(features.Timestep, n)
	case 2:
		h.other.Begin(features.PatchID, n)
	case 3:
		h.other.Begin(features.PatchID, -n) // nested scope
	case 5:
		h.other.End(features.PatchID)
	case 6:
		h.other.SetString(features.ProblemName, fmt.Sprint("deck", h.launches%3))
	case 7:
		h.other.End(features.PatchID)
	case 8:
		h.other.Begin("num_materials", n)
	case 9:
		h.other.End("num_materials")
	}
	if h.launches%257 == 0 {
		h.other.Clear()
	}
}

func (h *diffHooks) End(k *raja.Kernel, iset *raja.IndexSet, _ raja.Params, _ float64) {
	h.launches++
	h.sites[k] = true
	h.churn()
	for _, c := range h.cases {
		got := c.schema.ExtractInto(h.buf, k, iset, c.ann)
		want := features.OracleExtract(c.schema, k, iset, c.ann)
		if !sameBits(got, want) {
			h.t.Fatalf("launch %d of %s, case %s:\nplan   %v\noracle %v", h.launches, k.Name, c.name, got, want)
		}
	}
}

// TestPlanMatchesOracleOnEveryLaunch runs the three hydro applications on
// a small and a large deck each and compares, inside End, the compiled
// plan against the name-driven reference walk on every schema shape the
// repository builds — and on one schema shared by two blackboards that
// alternate launch by launch.
func TestPlanMatchesOracleOnEveryLaunch(t *testing.T) {
	runs := []struct {
		desc    app.Descriptor
		problem string
		size    int
		steps   int
	}{
		{lulesh.Descriptor(), "sedov", 8, 12},
		{lulesh.Descriptor(), "sedov", 64, 2},
		{cleverleaf.Descriptor(), "triple_pt", 16, 4},
		{cleverleaf.Descriptor(), "sod", 256, 1},
		{ares.Descriptor(), "hotspot", 16, 4},
		{ares.Descriptor(), "sedov", 128, 4},
	}
	for _, run := range runs {
		t.Run(fmt.Sprintf("%s-%s-%d", run.desc.Name, run.problem, run.size), func(t *testing.T) {
			ann, other := caliper.New(), caliper.New()
			shared := features.TableI()
			extended := features.NewSchema(append(features.TableI().Names(), "num_materials")...)
			h := &diffHooks{
				t: t, other: other, sites: map[*raja.Kernel]bool{},
				buf: make([]float64, extended.Len()),
				cases: []diffCase{
					{"TableI", shared, ann},
					{"TableI on the second blackboard", shared, other},
					{"Without(problem_name)", features.TableI().Without(features.ProblemName), ann},
					{"Select(reduced)", features.TableI().Select(features.Timestep, "movsd", features.NumIndices, features.Func, features.PatchID), ann},
					{"extended with num_materials", extended, ann},
					{"extended on the second blackboard", extended, other},
					{"nil blackboard", features.TableI(), nil},
				},
			}
			ctx := raja.NewSimContext(platform.NewSimClock(platform.SandyBridgeNode(), 0, 0), run.desc.DefaultParams)
			ctx.Hooks = h
			sim, err := run.desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: run.problem, Size: run.size})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < run.steps; i++ {
				sim.Step()
			}
			if h.launches == 0 || len(h.sites) < 2 {
				t.Fatalf("%d launches over %d sites: the run exercised nothing", h.launches, len(h.sites))
			}
			t.Logf("%d launches over %d sites", h.launches, len(h.sites))
			for _, c := range h.cases {
				if got := c.schema.BakedSites(); got != len(h.sites) {
					t.Errorf("case %s: %d static blocks baked, want one per distinct site (%d)", c.name, got, len(h.sites))
				}
			}
		})
	}
}

// TestPlanFollowsBlackboardWrites pins the slot-compiled board ops to
// every write the blackboard API has, one at a time, on a schema whose
// first extraction has already baked the site.
func TestPlanFollowsBlackboardWrites(t *testing.T) {
	s := features.TableI()
	k := raja.NewKernel("plan::writes", instmix.NewMix().With(instmix.Add, 2))
	iset := raja.NewRange(0, 7)
	ann := caliper.New()
	check := func(step string) {
		t.Helper()
		got, want := s.Extract(k, iset, ann), features.OracleExtract(s, k, iset, ann)
		if !sameBits(got, want) {
			t.Fatalf("after %s:\nplan   %v\noracle %v", step, got, want)
		}
	}
	check("nothing")
	ann.Set(features.Timestep, 3)
	check("Set")
	ann.Begin(features.PatchID, 5)
	check("Begin")
	ann.Begin(features.PatchID, 6)
	check("nested Begin")
	ann.End(features.PatchID)
	check("End of the inner scope")
	ann.End(features.PatchID)
	check("End of the outer scope")
	ann.SetString(features.ProblemName, "sedov")
	check("SetString")
	ann.Clear()
	check("Clear")
	ann.Set(features.Timestep, 3) // the same value as before Clear, in a new publication
	check("Set after Clear")
}

// TestStaticBlockIsPerKernel: two kernels that differ only in one of the
// baked constants must not share a static block.
func TestStaticBlockIsPerKernel(t *testing.T) {
	s := features.TableI()
	iset := raja.NewRange(0, 4)
	a := raja.NewKernel("plan::a", instmix.NewMix().With(instmix.Mov, 1))
	b := raja.NewKernel("plan::b", instmix.NewMix().With(instmix.Mov, 2))
	for _, k := range []*raja.Kernel{a, b, a, b} {
		if got, want := s.Extract(k, iset, nil), features.OracleExtract(s, k, iset, nil); !sameBits(got, want) {
			t.Fatalf("%s:\nplan   %v\noracle %v", k.Name, got, want)
		}
	}
	if got := s.BakedSites(); got != 2 {
		t.Errorf("%d static blocks baked, want 2", got)
	}
}

// boardTuple is the four application features of one extracted vector.
type boardTuple [4]float64

// TestConcurrentFirstLaunches races N goroutines through their first
// launches of shared and private kernels on a fresh schema while a
// writer republishes the blackboard. Every vector's kernel and index-set
// features must equal the oracle's, and its application features must be
// the values of one state the writer published — never two states mixed.
func TestConcurrentFirstLaunches(t *testing.T) {
	const (
		workers = 8
		shared  = 6
		private = 3
		rounds  = 400
	)
	s := features.TableI()
	keys := features.AppFeatureNames()
	var at [4]int
	for i, key := range keys {
		at[i] = s.Index(key)
	}
	sharedKernels := make([]*raja.Kernel, shared)
	for i := range sharedKernels {
		sharedKernels[i] = raja.NewKernel(fmt.Sprint("plan::shared", i), instmix.NewMix().With(instmix.Add, float64(i+1)))
	}
	ann := caliper.New()

	var mu sync.Mutex
	published := map[boardTuple]bool{{}: true} // the empty blackboard reads all zero

	start := make(chan struct{})
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		// The writer is the only one, so it knows each state before it
		// publishes it: it records the state's tuple, then writes.
		stacks := make([][]float64, len(keys))
		record := func() {
			var tup boardTuple
			for i, st := range stacks {
				if len(st) > 0 {
					tup[i] = st[len(st)-1]
				}
			}
			mu.Lock()
			published[tup] = true
			mu.Unlock()
		}
		<-start
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			i, v := n%len(keys), float64(n)
			switch {
			case n%7 == 0: // Clear rewrites every key in one publication, so a vector torn across it matches no state
				for j := range stacks {
					stacks[j] = nil
				}
				record()
				ann.Clear()
			case n%5 == 1:
				stacks[i] = append(stacks[i], v)
				record()
				ann.Begin(keys[i], v)
			case n%5 == 3 && len(stacks[i]) > 0:
				stacks[i] = stacks[i][:len(stacks[i])-1]
				record()
				ann.End(keys[i])
			default:
				stacks[i] = []float64{v}
				record()
				ann.Set(keys[i], v)
			}
		}
	}()

	for w := 0; w < workers; w++ {
		kernels := append([]*raja.Kernel(nil), sharedKernels...)
		for i := 0; i < private; i++ {
			kernels = append(kernels, raja.NewKernel(fmt.Sprintf("plan::private%d.%d", w, i), nil))
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			buf := make([]float64, s.Len())
			<-start
			for r := 0; r < rounds; r++ {
				k := kernels[(r+w)%len(kernels)]
				iset := raja.NewRange(0, 1+r)
				got := s.ExtractInto(buf, k, iset, ann)
				var tup boardTuple
				for i, idx := range at {
					tup[i] = got[idx]
					got[idx] = 0
				}
				if want := features.OracleExtract(s, k, iset, nil); !sameBits(got, want) {
					t.Errorf("worker %d round %d, %s: kernel/index-set features\nplan   %v\noracle %v", w, r, k.Name, got, want)
					return
				}
				mu.Lock()
				ok := published[tup]
				mu.Unlock()
				if !ok {
					t.Errorf("worker %d round %d: application features %v are no published state of the blackboard", w, r, tup)
					return
				}
			}
		}()
	}
	close(start)
	readers.Wait()
	close(stop)
	writer.Wait()
	if got, want := s.BakedSites(), shared+workers*private; got != want {
		t.Errorf("%d static blocks baked, want %d (one per distinct site)", got, want)
	}
}

// TestExtractIntoAllocationFree: once a site is baked and the blackboard
// is quiet, an extraction allocates nothing — on the full schema, on a
// schema with no blackboard feature, and with no blackboard.
func TestExtractIntoAllocationFree(t *testing.T) {
	ann := caliper.New()
	ann.Set(features.Timestep, 1)
	ann.SetString(features.ProblemName, "allocguard")
	kernels := []*raja.Kernel{
		raja.NewKernel("plan::alloc0", instmix.NewMix().With(instmix.Add, 4)),
		raja.NewKernel("plan::alloc1", nil),
	}
	iset := raja.NewIndexSet(raja.RangeSegment{Begin: 0, End: 64}, raja.ListSegment{Indices: []int{1, 5}})
	for _, c := range []diffCase{
		{"TableI", features.TableI(), ann},
		{"kernel features only", features.NewSchema(features.KernelFeatureNames()...), ann},
		{"nil blackboard", features.TableI(), nil},
	} {
		buf := make([]float64, c.schema.Len())
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			c.schema.ExtractInto(buf, kernels[i%len(kernels)], iset, c.ann)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: ExtractInto allocates %.1f objects per launch in steady state, want 0", c.name, allocs)
		}
	}
}

// BenchmarkExtractInto is the launch path's extraction on the full
// Table I schema, rotating over a few sites as an application does.
func BenchmarkExtractInto(b *testing.B) {
	s := features.TableI()
	ann := caliper.New()
	ann.Set(features.Timestep, 5)
	ann.Set(features.ProblemSize, 64)
	kernels := make([]*raja.Kernel, 16)
	for i := range kernels {
		kernels[i] = raja.NewKernel(fmt.Sprint("plan::bench", i), instmix.NewMix().With(instmix.Mov, float64(i)))
	}
	iset := raja.NewRange(0, 4096)
	buf := make([]float64, s.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ExtractInto(buf, kernels[i&15], iset, ann)
	}
}
