package cleverleaf

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/platform"
	"apollo/internal/raja"
)

// goldenDigests are the per-deck digests of a 6-step size-32 run on a
// noisy simulated clock: every launch's kernel and index set, the final
// simulated and physical times, and every field of every patch bit for
// bit. A change that moves one launch, one noise draw or one bit of one
// answer moves its deck's digest.
var goldenDigests = map[string]string{
	"sod":       "84b1b025e3980dddb0817943218d89aea35ca0e57e2d31e44779004251795359",
	"sedov":     "11bc4f9771e4a95bf426b9f00bba712d806bbe13ce323afcfb9f3cb303f1f50a",
	"triple_pt": "ba68db6dda7fbbaa59bdeaee7055a7705ea4a0f5c541423cadc4f5dc7e8e86b5",
}

// goldenChildEnv marks the re-executed test binary that computes the
// digests. The clock's noise is keyed by each kernel's process-wide
// invocation count, so the runs need a process in which no other test
// has launched a kernel.
const goldenChildEnv = "APOLLO_CLEVERLEAF_GOLDEN_CHILD"

// TestGoldenDigest runs every deck in a fresh process and compares each
// run's digest with goldenDigests.
func TestGoldenDigest(t *testing.T) {
	if os.Getenv(goldenChildEnv) != "" {
		for _, problem := range Descriptor().Problems {
			fmt.Printf("digest %s %s\n", problem, goldenRun(t, problem))
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestGoldenDigest$")
	cmd.Env = append(os.Environ(), goldenChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("digest run: %v\n%s", err, out)
	}
	got := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "digest" {
			got[f[1]] = f[2]
		}
	}
	for _, problem := range Descriptor().Problems {
		if got[problem] != goldenDigests[problem] {
			t.Errorf("%s: digest %s, want %s", problem, got[problem], goldenDigests[problem])
		}
	}
}

// goldenRun steps one deck and returns its digest.
func goldenRun(t *testing.T, problem string) string {
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0.05, 7)
	ctx := raja.NewSimContext(clk, Descriptor().DefaultParams)
	h := sha256.New()
	ctx.Observe = func(k *raja.Kernel, iset *raja.IndexSet, _ raja.Params, _ float64) {
		digestLaunch(h, k, iset)
	}
	s, err := New(app.Config{Ctx: ctx, Ann: caliper.New(), Problem: problem, Size: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s.Step()
	}
	digestFloat(h, clk.NowNS())
	digestFloat(h, s.Time())
	fields := []string{FRho, FMu, FMv, FE, FP, FQ, FWs, FRhoN, FMuN, FMvN, FEN}
	for _, p := range s.Hierarchy().Patches() {
		digestInts(h, p.ID, p.Level, p.Box.X0, p.Box.Y0, p.Box.X1, p.Box.Y1)
		for _, name := range fields {
			for _, v := range p.Field(name).Data() {
				digestFloat(h, v)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// digestLaunch hashes a launch's kernel name and its index set, segment
// by segment.
func digestLaunch(h hash.Hash, k *raja.Kernel, iset *raja.IndexSet) {
	h.Write([]byte(k.Name))
	digestInts(h, iset.NumSegments())
	for i := 0; i < iset.NumSegments(); i++ {
		seg := iset.Segment(i)
		digestInts(h, int(seg.Type()), seg.Stride(), seg.Len())
		for j := 0; j < seg.Len(); j++ {
			digestInts(h, seg.At(j))
		}
	}
}

func digestInts(h hash.Hash, vs ...int) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
}

func digestFloat(h hash.Hash, v float64) {
	h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
}
