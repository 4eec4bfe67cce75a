// Package tuner provides the two runtime Apollo components the paper
// loads behind RAJA's apollo::begin / apollo::end hooks:
//
//   - Recorder collects a Table I feature vector and the measured runtime
//     of every kernel execution into a training-data frame. It observes
//     (raja.Context.Observe) and never decides: a training run is the
//     application with the candidate variant as its context's Default,
//     one run per candidate parameter value;
//   - Tuner evaluates trained decision models at every launch and writes
//     the predicted execution parameters to the blackboard for the
//     policy switcher to consume. It decides: it implements raja.Hooks.
//
// The same application binary runs in either recording or tuning mode
// just by installing a different component on its context — the
// decoupling the paper gets from dynamic loading.
package tuner

import (
	"maps"
	"math"
	"sync"
	"sync/atomic"

	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/ctree"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/raja"
	"apollo/internal/telemetry"
)

// Recorder captures one training sample per kernel execution.
type Recorder struct {
	schema *features.Schema
	ann    *caliper.Annotations

	mu    sync.Mutex
	frame *dataset.Frame
	row   []float64
}

// NewRecorder returns a recorder that records samples against the given
// schema and annotation blackboard; install its Observe as a context's
// observer.
func NewRecorder(schema *features.Schema, ann *caliper.Annotations) *Recorder {
	return &Recorder{
		schema: schema,
		ann:    ann,
		frame:  dataset.NewFrame(core.RecordColumns(schema)...),
		row:    make([]float64, schema.Len()+3),
	}
}

// Observe appends the sample: the feature vector, the parameters used,
// and the elapsed time.
func (r *Recorder) Observe(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.schema.ExtractInto(r.row, k, iset, r.ann))
	r.row[n] = float64(p.Policy)
	r.row[n+1] = float64(p.Chunk)
	r.row[n+2] = elapsedNS
	r.frame.AddRow(r.row)
}

// Frame returns the live recording frame. Ownership contract: the frame
// remains owned by the recorder, and Observe keeps appending to it for as
// long as the application runs — callers that only read it after all
// launches have finished (the offline training pipeline) may use it
// directly, but callers that export while recording may continue (e.g. a
// server shipping training data mid-run) must use Snapshot instead.
func (r *Recorder) Frame() *dataset.Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frame
}

// Snapshot returns a deep copy of the samples recorded so far. The copy
// is safe to read, serialize, or mutate while the recorder keeps
// appending to its live frame on other goroutines.
func (r *Recorder) Snapshot() *dataset.Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frame.Clone()
}

// Samples returns the number of recorded samples.
func (r *Recorder) Samples() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frame.Len()
}

// Projectors is one immutable set of decision projectors: a policy
// projector, a chunk projector, or both (either may be nil, leaving the
// corresponding parameter at the tuner's base value). Sources publish a
// fresh set on every model change and never mutate a published one.
type Projectors struct {
	Policy *core.Projector
	Chunk  *core.Projector
}

// ModelSource supplies the tuner's current projectors. Implementations
// may swap the returned set at any time — a serving client installs a
// retrained model into a running tuner this way — and must make
// Projectors safe for concurrent callers. Returning nil is equivalent to
// returning an empty set: the tuner falls back to its base parameters.
type ModelSource interface {
	Projectors() *Projectors
}

// SwapSource is the trivial ModelSource: an atomically swappable
// projector set. It backs UsePolicyModel/UseChunkModel and is the seam a
// test or an embedding application uses to hot-swap models by hand.
type SwapSource struct {
	ps atomic.Pointer[Projectors]
}

// emptyProjectors backs Projectors() before the first Store, so the
// empty case costs no allocation on the launch path.
var emptyProjectors = &Projectors{}

// Projectors returns the current set (never nil).
//
//apollo:hotpath
func (s *SwapSource) Projectors() *Projectors {
	if ps := s.ps.Load(); ps != nil {
		return ps
	}
	return emptyProjectors
}

// Store atomically publishes a new projector set. Launches already in
// flight finish with the set they loaded; every later launch sees ps.
func (s *SwapSource) Store(ps *Projectors) {
	if ps == nil {
		ps = &Projectors{}
	}
	s.ps.Store(ps)
}

// Tuner evaluates trained models at every kernel launch. A policy model,
// a chunk model, or both may be installed; absent models leave the
// corresponding parameter at its base value. The launch hot path
// (Begin/End) carries //apollo:hotpath annotations, so apollo-vet
// machine-checks what used to be prose here: no allocation, no mutex,
// one atomic load of the projector set — concurrent contexts driving one
// tuner never contend, and a model source may swap in a retrained model
// mid-run with no coordination.
type Tuner struct {
	schema *features.Schema
	ann    *caliper.Annotations
	base   raja.Params

	// scratch pools feature-vector buffers (len == schema.Len()) so
	// Begin extracts without allocating.
	scratch sync.Pool

	own    SwapSource // backs UsePolicyModel / UseChunkModel
	src    atomic.Pointer[sourceBox]
	instMu sync.Mutex // serializes model installs, not launches

	decisions atomic.Uint64

	// telem, when set, receives a sampled (features, params, elapsed)
	// measurement from End — the capture side of the closed training
	// loop. Nil keeps End a two-instruction no-op.
	telem atomic.Pointer[telemetry.Recorder]

	// fl, when set, gets every launch's runtime (its site's EWMA) and a full
	// decision-provenance record of the launches flightEvery selects. Nil
	// costs one atomic load and a branch.
	fl atomic.Pointer[flight.Recorder]

	// exploreEvery > 0 lets every exploreEvery-th launch of a site run the
	// execution policy the model did not pick, within the site's time
	// budget, so telemetry contains counterfactual observations (how fast
	// would the other variant have been?) that let the continuous trainer
	// relabel vectors the deployed model gets wrong. 0 disables exploration.
	exploreEvery atomic.Uint64
	explored     atomic.Uint64
	// sites is copy-on-write: a site's first launch republishes it under siteMu.
	sites  atomic.Pointer[map[uint64]*siteRegion]
	siteMu sync.Mutex
}

// exploreShare is ε, the share of a site's kernel time that launches
// running the policy the model did not pick may take. A constant: the
// budget scales itself (a variant k× dearer is looked at k× less often).
const exploreShare = 1.0 / 64

// flightEvery is the flight-record cadence: End writes the full record (three
// clock reads, the model replay with its trails, 680 bytes) for a site's 1st,
// 17th, 33rd, … launch and every flipped one; the EWMA folds in every launch.
// A record each launch was half of Apollo's cost on LULESH sedov 8 (~695 ns a
// launch against ~325); 1 in 8 read ~4% dearer, 1 in 64 ~3% cheaper, below the
// benchmark's resolution and for a quarter of the records (EXPERIMENTS.md).
const flightEvery = 16

// siteRegion is all End keeps per launch site, one load of the copy-on-write
// sites map away: the exploration account, the site's entry in the attached
// flight recorder, and the launch count the flight cadence selects by.
type siteRegion struct {
	siteBudget
	fl    atomic.Pointer[siteFlight]
	ended atomic.Uint64 // launches End has seen with a flight recorder attached
}

// siteFlight is a site's entry in one flight recorder; UseFlight swapping
// recorders makes it stale, and the site's next End re-resolves it.
type siteFlight struct {
	fr   *flight.Recorder
	site *flight.Site
}

// entry returns the region's entry in fr, nil when it has none there (or
// there is no region, or no recorder).
//
//apollo:hotpath
func (s *siteRegion) entry(fr *flight.Recorder) *siteFlight {
	if s == nil {
		return nil
	}
	if h := s.fl.Load(); h != nil && h.fr == fr {
		return h
	}
	return nil
}

// siteBudget is one launch site's exploration account (DESIGN §6). Each
// field is one atomic word (floats as float64 bits) updated load-then-
// store: racing launches of a site can lose an update, never tear a value,
// as the flight recorder's EWMA does. It reads no clock and draws no random
// number: decisions are a function of the launches and the times End is handed.
type siteBudget struct {
	launches   atomic.Uint64
	totalNS    atomic.Uint64 // kernel time of every launch End has seen
	exploredNS atomic.Uint64 // the part spent in launches Begin flipped
	// perIterNS is the EWMA (α = 0.25) of elapsed ÷ iterations per policy —
	// per iteration because one site launches index sets of many sizes.
	perIterNS [raja.NumPolicies]atomic.Uint64
	inFlight  atomic.Int32 // 1 + the policy of a flipped launch End has yet to see
}

func loadNS(a *atomic.Uint64) float64    { return math.Float64frombits(a.Load()) }
func addNS(a *atomic.Uint64, ns float64) { a.Store(math.Float64bits(loadNS(a) + ns)) }

// affords reports whether this launch may run the policy the model did not
// choose: it is the site's every-th launch and its price, that policy's
// EWMA × iters, fits the budget. A policy never seen here is priced as the
// chosen one (a first look costs one more launch of what is running now);
// with neither seen nothing is explored.
//
//apollo:hotpath
func (s *siteBudget) affords(chosen raja.Policy, iters int, every uint64) bool {
	if s.launches.Add(1)%every != 0 || uint(chosen) >= uint(len(s.perIterNS)) {
		return false
	}
	perIter := loadNS(&s.perIterNS[flipPolicy(chosen)])
	if perIter == 0 {
		perIter = loadNS(&s.perIterNS[chosen])
	}
	price := perIter * float64(iters)
	return price > 0 && loadNS(&s.exploredNS)+price <= exploreShare*(loadNS(&s.totalNS)+price)
}

// settle books a finished launch: its time into the site's total and, when
// it is the flipped launch in flight, into the explored time; its time per
// iteration into the EWMA of the policy it ran. It reports whether the
// launch was the flipped one.
//
//apollo:hotpath
func (s *siteBudget) settle(ran raja.Policy, iters int, elapsedNS float64) (flipped bool) {
	addNS(&s.totalNS, elapsedNS)
	if flipped = s.inFlight.Load() == int32(ran)+1; flipped {
		s.inFlight.Store(0)
		addNS(&s.exploredNS, elapsedNS)
	}
	if iters > 0 && uint(ran) < uint(len(s.perIterNS)) {
		a, obs := &s.perIterNS[ran], elapsedNS/float64(iters)
		if prior := loadNS(a); prior != 0 {
			obs = 0.75*prior + 0.25*obs
		}
		a.Store(math.Float64bits(obs))
	}
	return flipped
}

// sourceBox makes the ModelSource interface value atomically swappable.
type sourceBox struct{ s ModelSource }

// NewTuner returns a tuner extracting features against the given schema
// and blackboard, starting from base parameters.
func NewTuner(schema *features.Schema, ann *caliper.Annotations, base raja.Params) *Tuner {
	t := &Tuner{schema: schema, ann: ann, base: base}
	t.scratch.New = func() any {
		v := make([]float64, schema.Len())
		return &v
	}
	t.src.Store(&sourceBox{s: &t.own})
	t.sites.Store(&map[uint64]*siteRegion{})
	return t
}

// UsePolicyModel installs a model predicting the execution policy into
// the tuner's own swappable source.
func (t *Tuner) UsePolicyModel(m *core.Model) *Tuner {
	if m.Param != core.ExecutionPolicy {
		panic("tuner: UsePolicyModel with a non-policy model")
	}
	t.instMu.Lock()
	defer t.instMu.Unlock()
	cur := t.own.Projectors()
	t.own.Store(&Projectors{Policy: m.NewProjector(t.schema), Chunk: cur.Chunk})
	return t
}

// UseChunkModel installs a model predicting the OpenMP chunk size into
// the tuner's own swappable source.
func (t *Tuner) UseChunkModel(m *core.Model) *Tuner {
	if m.Param != core.ChunkSize {
		panic("tuner: UseChunkModel with a non-chunk model")
	}
	t.instMu.Lock()
	defer t.instMu.Unlock()
	cur := t.own.Projectors()
	t.own.Store(&Projectors{Policy: cur.Policy, Chunk: m.NewProjector(t.schema)})
	return t
}

// UseSource routes the tuner's projector reads through src — typically a
// serving client that fetches models from a registry and hot-swaps them.
// Passing nil restores the tuner's own UsePolicyModel/UseChunkModel set.
func (t *Tuner) UseSource(src ModelSource) *Tuner {
	if src == nil {
		src = &t.own
	}
	t.src.Store(&sourceBox{s: src})
	return t
}

// Begin extracts the launch's features, evaluates the installed models,
// and returns the predicted parameters. It takes no locks and allocates
// nothing: the scratch vector is pooled, the projector pools its own
// buffers, and the projector set is one atomic pointer load.
//
//apollo:hotpath
func (t *Tuner) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	t.decisions.Add(1)
	xp := t.scratch.Get().(*[]float64)
	defer t.scratch.Put(xp)
	x := t.schema.ExtractInto(*xp, k, iset, t.ann)
	params := t.base
	ps := t.src.Load().s.Projectors()
	if ps == nil {
		return params, true
	}
	if ps.Policy != nil {
		params.Policy = raja.Policy(ps.Policy.Predict(x))
	}
	if ps.Chunk != nil {
		class := ps.Chunk.Predict(x)
		if class >= 0 && class < len(raja.ChunkSizes) {
			params.Chunk = raja.ChunkSizes[class]
		}
	}
	if every := t.exploreEvery.Load(); every > 0 {
		s := t.site(k.ID)
		if s == nil {
			s, _ = t.registerSite(k, nil)
		}
		if s.affords(params.Policy, iset.Len(), every) {
			params.Policy = flipPolicy(params.Policy)
			s.inFlight.Store(int32(params.Policy) + 1)
			t.explored.Add(1)
		}
	}
	return params, true
}

// site returns the site's region, nil before its first launch with
// exploration or a flight recorder on.
//
//apollo:hotpath
func (t *Tuner) site(id uint64) *siteRegion { return (*t.sites.Load())[id] }

// registerSite publishes a fresh region for the site (the first wins) and,
// given a flight recorder, resolves the site's entry in it.
//
//apollo:coldpath a site's first launch and its first after a recorder swap, amortized over every later launch
func (t *Tuner) registerSite(k *raja.Kernel, fr *flight.Recorder) (*siteRegion, *siteFlight) {
	t.siteMu.Lock()
	s := t.site(k.ID)
	if s == nil {
		m := maps.Clone(*t.sites.Load())
		s = &siteRegion{}
		m[k.ID] = s
		t.sites.Store(&m)
	}
	t.siteMu.Unlock()
	if fr == nil {
		return s, nil
	}
	h := &siteFlight{fr: fr, site: fr.RegisterSite(k.ID, k.Name, nil)}
	s.fl.Store(h)
	return s, h
}

// flipPolicy returns the other execution policy — the exploration move.
func flipPolicy(p raja.Policy) raja.Policy {
	if p == raja.SeqExec {
		return raja.OmpParallelForExec
	}
	return raja.SeqExec
}

// End settles the launch on its site's region and feeds the measurement
// to the attached telemetry recorder and flight recorder. With neither (or
// on the telemetry recorder's unsampled path and a launch the flight
// cadence skips) it performs a few atomic operations and allocates
// nothing — End runs inside every kernel launch, so this path must stay
// effectively free. Otherwise it extracts the launch's features once, and
// the ring row and the flight record are both copies of that one vector.
//
//apollo:hotpath
func (t *Tuner) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	fr := t.fl.Load()
	var h *siteFlight
	var predictedNS float64
	record := false
	if explore := t.exploreEvery.Load() > 0; explore || fr != nil {
		s := t.site(k.ID)
		h = s.entry(fr)
		if s == nil || fr != nil && h == nil {
			s, h = t.registerSite(k, fr)
		}
		flipped := explore && s.settle(p.Policy, iset.Len(), elapsedNS)
		if h != nil {
			// Fold first: the EWMA sees every launch, recorded or not.
			predictedNS = h.site.PredictObserve(int(p.Policy), elapsedNS)
			record = s.ended.Add(1)%flightEvery == 1 || flipped
		}
	}
	rec := t.telem.Load()
	shares := rec != nil && rec.Captures(t.schema, t.ann)
	if rec != nil && !shares {
		rec.Record(k, iset, p, elapsedNS) // another schema or blackboard: it extracts its own
	}
	sampled := shares && rec.Sample()
	if !sampled && !record {
		return
	}
	xp := t.scratch.Get().(*[]float64)
	var t0 int64
	if record {
		t0 = flight.Now() // only a flight record reports the extraction's cost
	}
	x := t.schema.ExtractInto(*xp, k, iset, t.ann)
	if record {
		t.emitFlight(h, k, iset, p, elapsedNS, predictedNS, x, float64(flight.Now()-t0))
	}
	if sampled {
		rec.RecordVector(x, p, elapsedNS)
	}
	t.scratch.Put(xp)
}

// emitFlight writes one decision-provenance record from x, the vector
// End extracted for this launch (FeatureNS is the time that one
// extraction took, whoever else consumed it), and predictedNS, what the
// site's EWMA expected before End folded this launch in; it re-evaluates
// the installed models on x with trail capture, timing that as ModelNS.
// Replaying at End (rather than carrying state from Begin) keeps
// raja.Hooks token-free and the disabled cost at a single branch; the
// replayed decision can differ from the one Begin made only if a model
// was hot-swapped or the blackboard republished mid-launch, or the launch
// was an exploration flip — all of which surface as Explored. It
// allocates nothing.
//
// Each installed model writes its own compact offset trail into the
// record (policy first, then chunk; 4 bytes per step), decoded at
// capture time against the site's registered TrailDecoder.
//
//apollo:hotpath
func (t *Tuner) emitFlight(h *siteFlight, k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS, predictedNS float64, x []float64, featureNS float64) {
	rec, tok := h.fr.Reserve(k.ID)
	if rec == nil {
		return // a lap collision: the recorder counted the drop
	}
	t1 := flight.Now()
	rec.NumFeatures = int32(copy(rec.Features[:], x))
	predicted := int32(-1)
	chosen := t.base
	if ps := t.src.Load().s.Projectors(); ps != nil && (ps.Policy != nil || ps.Chunk != nil) {
		// The decoder pointer doubles as the model-swap detector — one
		// lock-free load compares the compiled tree identities per launch.
		var policyTree, chunkTree *ctree.Tree
		n := 0
		if ps.Policy != nil {
			policyTree = ps.Policy.Compiled()
			class, steps := ps.Policy.PredictOffsets(x, rec.Offsets[:flight.MaxOffsets])
			n = steps
			predicted = int32(class)
			chosen.Policy = raja.Policy(class)
		}
		rec.OffsetsSplit = int32(n)
		if ps.Chunk != nil {
			chunkTree = ps.Chunk.Compiled()
			class, steps := ps.Chunk.PredictOffsets(x, rec.Offsets[n:n+flight.MaxOffsets])
			n += steps
			if predicted < 0 {
				predicted = int32(class)
			}
			if class >= 0 && class < len(raja.ChunkSizes) {
				chosen.Chunk = raja.ChunkSizes[class]
			}
		}
		rec.OffsetsLen = int32(n)
		if d := h.site.Decoder(); d == nil || d.Tree != policyTree || d.ChunkTree != chunkTree {
			registerDecoder(h.site, ps)
		}
	}
	t2 := flight.Now()
	rec.Iterations = int64(iset.Len())
	rec.Policy = int32(p.Policy)
	rec.Chunk = int32(p.Chunk)
	rec.Predicted = predicted
	rec.Explored = predicted >= 0 && chosen.Policy != p.Policy
	rec.ObservedNS = elapsedNS
	rec.PredictedNS = predictedNS
	rec.FeatureNS = featureNS
	rec.ModelNS = float64(t2 - t1)
	h.fr.Commit(tok)
}

// registerDecoder publishes the flight-trail decoder for a site's
// current compiled models. It allocates, so it lives off the hot path
// behind emitFlight's pointer-identity check: once per model swap, never
// per launch.
//
//apollo:coldpath decoder registration runs once per site model swap
func registerDecoder(site *flight.Site, ps *Projectors) {
	d := &flight.TrailDecoder{}
	if ps.Policy != nil {
		d.Tree, d.Src = ps.Policy.Compiled(), ps.Policy.SourceIndex()
	}
	if ps.Chunk != nil {
		d.ChunkTree, d.ChunkSrc = ps.Chunk.Compiled(), ps.Chunk.SourceIndex()
	}
	site.SetDecoder(d)
}

// UseTelemetry attaches (or, with nil, detaches) a telemetry recorder;
// End starts feeding it immediately, with no pause in launches.
func (t *Tuner) UseTelemetry(rec *telemetry.Recorder) *Tuner {
	t.telem.Store(rec)
	return t
}

// UseFlight attaches (or, with nil, detaches) a flight recorder; from the
// next launch on, End records there at the flightEvery cadence.
func (t *Tuner) UseFlight(fr *flight.Recorder) *Tuner {
	t.fl.Store(fr)
	return t
}

// Flight returns the attached flight recorder (nil when detached).
func (t *Tuner) Flight() *flight.Recorder { return t.fl.Load() }

// ExploreEvery lets every n-th launch of a site execute the opposite
// execution policy from the model's pick while such launches stay within
// exploreShare of the site's kernel time (0 disables). Exploration is what
// gives the telemetry stream observations of both variants per feature
// vector — without it the closed loop could never learn that the deployed
// model's choice has become the slower one.
func (t *Tuner) ExploreEvery(n uint64) *Tuner {
	t.exploreEvery.Store(n)
	return t
}

// Explored returns how many launches ran an exploration variant.
func (t *Tuner) Explored() uint64 { return t.explored.Load() }

// ExploreShare returns what exploration has cost: the kernel time of the
// launches that ran an exploration variant as a share of all kernel time
// End has seen with exploration on (0 before any).
func (t *Tuner) ExploreShare() float64 {
	var explored, total float64
	for _, s := range *t.sites.Load() {
		explored += loadNS(&s.exploredNS)
		total += loadNS(&s.totalNS)
	}
	return explored / max(total, math.SmallestNonzeroFloat64)
}

// Decisions returns how many launches the tuner has parameterized.
func (t *Tuner) Decisions() uint64 { return t.decisions.Load() }
