package tuner

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"apollo/internal/caliper"
	"apollo/internal/features"
	"apollo/internal/raja"
)

// exploreRun drives launches of one site through a tuner whose model
// picks seq for every index set used here, handing End a time of
// perIterNS[policy run] × iterations, and checks the budget at every
// prefix: explored time ≤ ε · total + the dearest launch seen (a first
// look is priced as the chosen policy, so it may overrun by one launch).
// It returns how many launches flipped.
func exploreRun(t *testing.T, tn *Tuner, k *raja.Kernel, launches int, perIterNS [2]float64, lens ...int) (flips int) {
	t.Helper()
	var total, explored, dearest float64
	for i := 0; i < launches; i++ {
		iset := raja.NewRange(0, lens[i%len(lens)])
		p, _ := tn.Begin(k, iset)
		ns := perIterNS[p.Policy] * float64(iset.Len())
		tn.End(k, iset, p, ns)
		total += ns
		dearest = math.Max(dearest, ns)
		if p.Policy != raja.SeqExec {
			flips++
			explored += ns
		}
		if explored > exploreShare*total+dearest {
			t.Fatalf("launch %d: explored %g ns of %g, over the budget by more than one launch (%g)", i, explored, total, dearest)
		}
	}
	if got := tn.Explored(); got != uint64(flips) {
		t.Fatalf("Explored() = %d, %d launches flipped", got, flips)
	}
	return flips
}

func seqPickingTuner(t testing.TB) *Tuner {
	schema := features.TableI()
	return NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(trainPolicyModel(t, schema))
}

// TestExploreBudget pins the rule that replaced the launch-count modulo:
// what a look costs decides how often a site takes one.
func TestExploreBudget(t *testing.T) {
	const launches = 10000
	k := raja.NewKernel("budget", nil)

	t.Run("unseen site never explores", func(t *testing.T) {
		tn := seqPickingTuner(t).ExploreEvery(1)
		for i := 0; i < 500; i++ { // Begin alone: End never prices either policy
			if p, _ := tn.Begin(k, raja.NewRange(0, 50)); p.Policy != raja.SeqExec {
				t.Fatalf("launch %d explored with no time on the site's account", i)
			}
		}
	})

	equal := exploreRun(t, seqPickingTuner(t).ExploreEvery(1), k, launches, [2]float64{10, 10}, 50)
	if want := launches / 64; equal < want*3/4 || equal > want {
		t.Fatalf("equal prices: %d looks in %d launches, want about %d", equal, launches, want)
	}

	t.Run("a dearer variant is looked at as much less often", func(t *testing.T) {
		dear := exploreRun(t, seqPickingTuner(t).ExploreEvery(1), k, launches, [2]float64{10, 100}, 50)
		if dear == 0 || equal < 7*dear || equal > 13*dear {
			t.Errorf("10x dearer: %d looks against %d at equal prices, want about a tenth", dear, equal)
		}
	})

	t.Run("a cheaper variant is explored at nearly the cadence", func(t *testing.T) {
		// At a quarter of the chosen price the budget alone would allow a
		// look every ~17 launches; the cadence caps it at one in 16.
		cheap := exploreRun(t, seqPickingTuner(t).ExploreEvery(16), k, launches, [2]float64{10, 2.5}, 50)
		if candidates := launches / 16; cheap < candidates/2 || cheap > candidates {
			t.Errorf("4x cheaper: %d of %d candidates explored, want at least half", cheap, candidates)
		}
	})

	t.Run("mixed index-set lengths are priced per iteration", func(t *testing.T) {
		tn := seqPickingTuner(t).ExploreEvery(1)
		long, short := raja.NewRange(0, 1000), raja.NewRange(0, 10)
		p, _ := tn.Begin(k, long)
		tn.End(k, long, p, 10000)
		// One long launch is on the account. A short one costs a hundredth
		// of it, inside the budget; priced per launch it would not be.
		if p, _ := tn.Begin(k, short); p.Policy == raja.SeqExec {
			t.Fatal("a 10-iteration launch after a 1000-iteration one did not explore")
		} else {
			tn.End(k, short, p, 100)
		}
		if p, _ := tn.Begin(k, long); p.Policy != raja.SeqExec {
			t.Fatal("a 1000-iteration launch explored on an account of 10,100 ns")
		}
		mixed := exploreRun(t, seqPickingTuner(t).ExploreEvery(1), k, launches, [2]float64{10, 10}, 1000, 10, 10, 10)
		if mixed <= equal {
			t.Errorf("%d looks with three launches in four short, %d at one length: short launches should buy more looks", mixed, equal)
		}
	})
}

// TestExploreDeterministic: decisions are a pure function of the launch
// sequence and the times handed to End — no clock, no random draw.
func TestExploreDeterministic(t *testing.T) {
	kernels := []*raja.Kernel{raja.NewKernel("a", nil), raja.NewKernel("b", nil), raja.NewKernel("c", nil)}
	run := func() (decisions []raja.Policy, explored uint64, share float64) {
		tn := seqPickingTuner(t).ExploreEvery(2)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 20000; i++ {
			k, iset := kernels[rng.Intn(len(kernels))], raja.NewRange(0, 1+rng.Intn(200))
			p, _ := tn.Begin(k, iset)
			tn.End(k, iset, p, float64(iset.Len())*(5+10*rng.Float64())*float64(1+2*p.Policy))
			decisions = append(decisions, p.Policy)
		}
		return decisions, tn.Explored(), tn.ExploreShare()
	}
	d1, e1, s1 := run()
	d2, e2, s2 := run()
	// The share sums the sites in map order, so it repeats to rounding.
	if e1 == 0 || e1 != e2 || math.Abs(s1-s2) > 1e-12 {
		t.Fatalf("two identical runs explored %d (share %v) and %d (share %v) launches", e1, s1, e2, s2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("launch %d ran %v in one run and %v in the other", i, d1[i], d2[i])
		}
	}
}

// TestExploreConcurrentSites drives one tuner from eight goroutines over
// four sites (run under -race). The accounts are updated load-then-store,
// so contention may lose an update but must never tear one, and each
// goroutine may hold one look in flight that the others' budget checks
// cannot see yet: the budget holds with the single-threaded slack
// multiplied by the goroutine count.
func TestExploreConcurrentSites(t *testing.T) {
	const goroutines, launches, perIter = 8, 4000, 10.0
	tn := seqPickingTuner(t).ExploreEvery(1)
	sites := []*raja.Kernel{raja.NewKernel("s0", nil), raja.NewKernel("s1", nil), raja.NewKernel("s2", nil), raja.NewKernel("s3", nil)}
	type tally struct{ total, explored, flips float64 }
	tallies := make([][4]tally, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			iset := raja.NewRange(0, 50)
			for i := 0; i < launches; i++ {
				site := (g + i) % len(sites)
				p, _ := tn.Begin(sites[site], iset)
				ns := perIter * float64(iset.Len())
				tn.End(sites[site], iset, p, ns)
				tl := &tallies[g][site]
				tl.total += ns
				if p.Policy != raja.SeqExec {
					tl.explored += ns
					tl.flips++
				}
			}
		}(g)
	}
	wg.Wait()
	var flips float64
	for site, k := range sites {
		var sum tally
		for g := range tallies {
			sum.total += tallies[g][site].total
			sum.explored += tallies[g][site].explored
			flips += tallies[g][site].flips
		}
		if sum.explored == 0 {
			t.Errorf("site %d never explored in %g ns", site, sum.total)
		}
		if limit := goroutines * (exploreShare*sum.total + perIter*50); sum.explored > limit {
			t.Errorf("site %d: explored %g ns of %g, limit %g", site, sum.explored, sum.total, limit)
		}
		s := tn.site(k.ID)
		booked, bookedExplored := loadNS(&s.totalNS), loadNS(&s.exploredNS)
		if !(booked > 0 && booked <= sum.total) || !(bookedExplored >= 0 && bookedExplored <= sum.explored) {
			t.Errorf("site %d account reads %g ns (%g explored), the launches ran %g (%g): a torn or invented value",
				site, booked, bookedExplored, sum.total, sum.explored)
		}
		for pol := range s.perIterNS {
			if got := loadNS(&s.perIterNS[pol]); got != perIter {
				t.Errorf("site %d policy %d: %g ns per iteration, every launch ran at %g", site, pol, got, perIter)
			}
		}
	}
	if tn.Explored() != uint64(flips) {
		t.Errorf("Explored() = %d, the goroutines saw %g flips", tn.Explored(), flips)
	}
	if share := tn.ExploreShare(); !(share > 0 && share < 1) {
		t.Errorf("ExploreShare() = %v", share)
	}
}

// TestExploreAllocationFree: Begin and End with exploration on and the
// site's account in place allocate nothing, look or no look.
func TestExploreAllocationFree(t *testing.T) {
	tn := seqPickingTuner(t).ExploreEvery(1)
	k, iset := raja.NewKernel("allocguard", nil), raja.NewRange(0, 50)
	launch := func() {
		p, _ := tn.Begin(k, iset)
		tn.End(k, iset, p, 500)
	}
	launch() // the site's first launch interns its account
	allocs := testing.AllocsPerRun(1000, launch)
	if allocs != 0 && !raceEnabled { // Begin crosses two sync.Pools (see raceEnabled)
		t.Errorf("Begin+End with exploration on: %v allocs/run, want 0", allocs)
	}
	if tn.Explored() == 0 {
		t.Error("the measured launches never explored")
	}
}
