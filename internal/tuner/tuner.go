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
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/ctree"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/raja"
	"apollo/internal/ring"
	"apollo/internal/telemetry"
)

// Recorder captures one training sample per kernel execution.
type Recorder struct {
	schema *features.Schema
	ann    *caliper.Annotations

	mu    sync.Mutex //apollo:lockrank 55
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

	own    SwapSource // backs UsePolicyModel / UseChunkModel
	src    atomic.Pointer[sourceBox]
	instMu sync.Mutex // serializes model installs, not launches

	decisions atomic.Uint64 // launches Begin made with no projector set; the regions count the rest

	// telem, when set, receives a weighted (features, params, elapsed)
	// row from End at the rowWeight cadence — the capture side of the
	// closed training loop.
	telem atomic.Pointer[telemetry.Recorder]

	// fl, when set, gets a full decision-provenance record of the launches
	// flightEvery selects. Nil costs one atomic load and a branch.
	fl atomic.Pointer[flight.Recorder]

	// exploreEvery > 0 lets every exploreEvery-th launch of a site run the
	// execution policy the model did not pick, within the site's time
	// budget, so telemetry contains counterfactual observations (how fast
	// would the other variant have been?) that let the continuous trainer
	// relabel vectors the deployed model gets wrong. 0 disables exploration.
	exploreEvery atomic.Uint64
	explored     atomic.Uint64
	// sites is the site table indexed by raja.Kernel.ID (dense: see
	// raja.NewKernel), nil where no launch reached a region yet.
	// Copy-on-write: a site's first launch republishes it under siteMu.
	sites  atomic.Pointer[[]*siteRegion]
	siteMu sync.Mutex
}

// exploreShare is ε, the share of a site's kernel time that launches
// running the policy the model did not pick may take. A constant: the
// budget scales itself (a variant k× dearer is looked at k× less often).
const exploreShare = 1.0 / 64

// flightEvery is the flight-record cadence: End writes the full record (three
// clock reads, the model replay with its trails, 744 bytes) for a site's 1st,
// 17th, 33rd, … launch and every flipped one; the EWMA folds in every launch.
// A record each launch was half of Apollo's cost on LULESH sedov 8 (~695 ns a
// launch against ~325); 1 in 8 read ~4% dearer, 1 in 64 ~3% cheaper, below the
// benchmark's resolution and for a quarter of the records (EXPERIMENTS.md).
const flightEvery = 16

// The telemetry row cadence (rowWeight): a site's first rowsFirst launches,
// then one in 2, 4, … as its count doubles, up to one in rowStrideMax. The
// labeler ranks policies only on a vector seen under both, so End also
// keeps every flipped launch and, around a lone look (none other within
// lookGap launches), its likely twins: the look restarts the cadence, and
// a launch whose twin would fit the budget within rowsFirst is kept.
const (
	rowsFirst    = 16
	rowStrideMax = 64
	lookGap      = 2 * rowsFirst
)

// rowWeight returns the weight of the row kept of the m-th launch (1-based)
// of a site's cadence — the launches it stands for — or 0 for none.
func rowWeight(m uint64) float64 {
	stride := uint64(1) << min(bits.Len64((m-1)/rowsFirst), bits.Len64(rowStrideMax)-1)
	if (m-1)%stride != 0 {
		return 0
	}
	return float64(stride)
}

// siteRegion is all a launch keeps per site, one indexed load of the
// copy-on-write site table away: the kernel's full-width feature site,
// which a kept row or a flight record fills, Begin's plan, the runtime
// estimate and exploration account, and the launch counts End's two
// cadences select by.
type siteRegion struct {
	siteBudget
	full   *features.Site
	plan   atomic.Pointer[sitePlan]
	ended  atomic.Uint64 // launches End has seen with exploration, telemetry or flight on
	flip   atomic.Uint64 // ended at the last flipped launch
	origin atomic.Uint64 // ended at the last lone look, where the row cadence restarts
}

// sitePlan is each installed model's input compiled for a site under one
// projector set; a swap makes it stale, and the next Begin compiles again.
type sitePlan struct {
	ps            *Projectors
	policy, chunk *features.Site
}

// predict walks p's tree over its input at the site for this launch.
//
//apollo:hotpath
func predict(p *core.Projector, in *features.Site, iset *raja.IndexSet, ann *caliper.Annotations) int {
	var buf [planWidth]float64
	return p.Compiled().Predict(in.Fill(buf[:0], iset, ann))
}

// planWidth is the widest vector a launch fills on its stack (Table I has
// 41 features); Fill allocates a wider one.
const planWidth = 64

// siteBudget is one launch site's runtime estimate and exploration account
// (DESIGN §6). Each field is one atomic word (floats as float64 bits)
// updated load-then-store: racing launches of a site can lose an update,
// never tear a value. It reads no clock and draws no random number:
// decisions are a function of the launches and the times End is handed.
type siteBudget struct {
	launches   atomic.Uint64 // Begins that reached the region: the site's decisions
	totalNS    atomic.Uint64 // kernel time of every launch End has seen
	exploredNS atomic.Uint64 // the part spent in launches Begin flipped
	// perIterNS is the EWMA (α = 0.25) of elapsed ÷ iterations per policy —
	// per iteration because one site launches index sets of many sizes. It
	// prices exploration and backs flight records' PredictedNS.
	perIterNS [raja.NumPolicies]atomic.Uint64
	inFlight  atomic.Int32 // 1 + the policy of a flipped launch End has yet to see
}

func loadNS(a *atomic.Uint64) float64    { return math.Float64frombits(a.Load()) }
func addNS(a *atomic.Uint64, ns float64) { a.Store(math.Float64bits(loadNS(a) + ns)) }

// fits reports whether a launch of iters iterations may run the policy the
// model did not choose: its price, that policy's EWMA × iters, fits the
// budget once aheadNS more kernel time is booked (Begin: 0, on the site's
// every-th launch). A policy never seen here is priced as the chosen one (a
// first look costs one more launch of what is running now); with neither
// seen nothing is explored.
//
//apollo:hotpath
func (s *siteBudget) fits(chosen raja.Policy, iters int, aheadNS float64) bool {
	if uint(chosen) >= uint(len(s.perIterNS)) {
		return false
	}
	perIter := loadNS(&s.perIterNS[flipPolicy(chosen)])
	if perIter == 0 {
		perIter = loadNS(&s.perIterNS[chosen])
	}
	price := perIter * float64(iters)
	return price > 0 && loadNS(&s.exploredNS)+price <= exploreShare*(loadNS(&s.totalNS)+price+aheadNS)
}

// fold folds a finished launch's time per iteration into the EWMA of the
// policy it ran and returns what the EWMA priced the launch at before: its
// prior value × iters, 0 on the policy's first launch here.
//
//apollo:hotpath
func (s *siteBudget) fold(ran raja.Policy, iters int, elapsedNS float64) (priorNS float64) {
	if iters <= 0 || uint(ran) >= uint(len(s.perIterNS)) {
		return 0
	}
	a, obs := &s.perIterNS[ran], elapsedNS/float64(iters)
	prior := loadNS(a)
	if prior != 0 {
		obs = 0.75*prior + 0.25*obs
	}
	a.Store(math.Float64bits(obs))
	return prior * float64(iters)
}

// settle books a finished launch: its time into the site's total and, when
// it is the flipped launch in flight, into the explored time. It reports
// whether the launch was the flipped one.
//
//apollo:hotpath
func (s *siteBudget) settle(ran raja.Policy, elapsedNS float64) (flipped bool) {
	addNS(&s.totalNS, elapsedNS)
	if flipped = s.inFlight.Load() == int32(ran)+1; flipped {
		s.inFlight.Store(0)
		addNS(&s.exploredNS, elapsedNS)
	}
	return flipped
}

// sourceBox makes the ModelSource interface value atomically swappable.
type sourceBox struct{ s ModelSource }

// NewTuner returns a tuner extracting features against the given schema
// and blackboard, starting from base parameters.
func NewTuner(schema *features.Schema, ann *caliper.Annotations, base raja.Params) *Tuner {
	t := &Tuner{schema: schema, ann: ann, base: base}
	t.src.Store(&sourceBox{s: &t.own})
	t.sites.Store(&[]*siteRegion{})
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

// Begin evaluates the installed models on the launch and returns the
// predicted parameters. It takes no locks and allocates nothing: after one
// load of the projector set and one of the site's region, whose launch
// count is the one atomic add, the site's plan fills each model's input on
// the stack, its constant features already in place, and walks the tree.
//
//apollo:hotpath
func (t *Tuner) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	params := t.base
	ps := t.src.Load().s.Projectors()
	if ps == nil {
		t.decisions.Add(1)
		return params, true
	}
	s := t.site(k.ID)
	if s == nil {
		s = t.registerSite(k)
	}
	n := s.launches.Add(1)
	pl := s.plan.Load()
	if pl == nil || pl.ps != ps {
		pl = t.compilePlan(s, k, ps)
	}
	if ps.Policy != nil {
		params.Policy = raja.Policy(predict(ps.Policy, pl.policy, iset, t.ann))
	}
	if ps.Chunk != nil {
		class := predict(ps.Chunk, pl.chunk, iset, t.ann)
		if class >= 0 && class < len(raja.ChunkSizes) {
			params.Chunk = raja.ChunkSizes[class]
		}
	}
	if every := t.exploreEvery.Load(); every > 0 && n%every == 0 && s.fits(params.Policy, iset.Len(), 0) {
		params.Policy = flipPolicy(params.Policy)
		s.inFlight.Store(int32(params.Policy) + 1)
		t.explored.Add(1)
	}
	return params, true
}

// site returns the site's region, nil before its first launch.
//
//apollo:hotpath
func (t *Tuner) site(id uint64) *siteRegion {
	if sites := *t.sites.Load(); id < uint64(len(sites)) {
		return sites[id]
	}
	return nil
}

// registerSite publishes a fresh region for k's site, growing the table to
// its ID; the first wins.
//
//apollo:coldpath a site's first launch, amortized over every later launch
func (t *Tuner) registerSite(k *raja.Kernel) *siteRegion {
	full := t.schema.Full(k)
	t.siteMu.Lock()
	defer t.siteMu.Unlock()
	s := t.site(k.ID)
	if s == nil {
		old := *t.sites.Load()
		sites := make([]*siteRegion, max(uint64(len(old)), k.ID+1))
		copy(sites, old)
		s = &siteRegion{full: full}
		sites[k.ID] = s
		t.sites.Store(&sites)
	}
	return s
}

// compilePlan builds and publishes the site's plan under ps; racing
// compiles publish equivalent plans.
//
//apollo:coldpath a site's first launch under each projector set, amortized over every later launch
func (t *Tuner) compilePlan(s *siteRegion, k *raja.Kernel, ps *Projectors) *sitePlan {
	pl := &sitePlan{ps: ps}
	if ps.Policy != nil {
		pl.policy = t.schema.Site(k, ps.Policy.SourceIndex())
	}
	if ps.Chunk != nil {
		pl.chunk = t.schema.Site(k, ps.Chunk.SourceIndex())
	}
	s.plan.Store(pl)
	return pl
}

// flipPolicy returns the other execution policy — the exploration move.
func flipPolicy(p raja.Policy) raja.Policy {
	if p == raja.SeqExec {
		return raja.OmpParallelForExec
	}
	return raja.SeqExec
}

// End folds the launch into its site's region and feeds the measurement
// to the attached telemetry recorder (a row at the rowWeight cadence) and
// flight recorder (a record at the flightEvery one). A launch that gets
// neither costs a few atomic operations and allocates nothing — End runs
// inside every kernel launch. Otherwise End fills the launch's features
// once, from the region's site, in place: into the flight record when it
// writes one (a kept row then copies the record's vector), else straight
// into the reserved ring row.
//
//apollo:hotpath
func (t *Tuner) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	fr, rec := t.fl.Load(), t.telem.Load()
	explore := t.exploreEvery.Load() > 0
	if !explore && fr == nil && rec == nil {
		return
	}
	s := t.site(k.ID)
	if s == nil {
		s = t.registerSite(k)
	}
	predictedNS := s.fold(p.Policy, iset.Len(), elapsedNS) // every launch, recorded or not
	flipped := explore && s.settle(p.Policy, elapsedNS)
	n := s.ended.Add(1)
	record := fr != nil && (n%flightEvery == 1 || flipped)
	weight := 0.0
	if rec != nil {
		if !rec.Captures(t.schema, t.ann) {
			rec.Record(k, iset, p, elapsedNS) // another schema or blackboard: it extracts and samples its own
		} else if flipped {
			if prev := s.flip.Swap(n); prev == 0 || n-prev > lookGap {
				s.origin.Store(n)
			}
			weight = 1 // a flipped launch stands for itself
		} else if weight = rowWeight(n - s.origin.Load()); weight == 0 && explore && n-s.flip.Load() > lookGap && s.fits(p.Policy, iset.Len(), rowsFirst*elapsedNS) {
			weight = 1 // a look is near: this launch may be its twin
		}
	}
	if weight == 0 && !record {
		return
	}
	var row []float64
	var ticket ring.Ticket
	if weight > 0 {
		row, ticket = rec.Reserve() // nil on a full ring, the drop counted before anything is filled
	}
	filled := record && t.emitFlight(fr, s, k, iset, p, elapsedNS, predictedNS, row)
	if row != nil {
		if !filled {
			s.full.Fill(row, iset, t.ann)
		}
		rec.Publish(row, ticket, p, elapsedNS, weight)
	}
}

// emitFlight writes one decision-provenance record: it fills the launch's
// features from the region's site into the record in place (FeatureNS is
// that fill, timed from the record's own TimeNS stamp) and copies them
// into row, a reserved telemetry row or nil, before the record commits;
// it reports whether it did. predictedNS is what the site's EWMA priced
// the launch at before End folded it in. It re-evaluates the installed
// models on the vector with trail capture, timing that as ModelNS: three
// clock reads a record.
//
// Replaying at End (rather than carrying state from Begin) keeps
// raja.Hooks token-free and the disabled cost at a single branch; the
// replayed decision can differ from the one Begin made only if a model
// was hot-swapped or the blackboard republished mid-launch, or the launch
// was an exploration flip — all of which surface as Explored. It
// allocates nothing.
//
// Each installed model writes its own compact offset trail into the
// record (policy first, then chunk; 4 bytes per step), stamped with the
// generation of the recorder's TrailDecoder for those trees, against
// which a capture explains it.
//
//apollo:hotpath
func (t *Tuner) emitFlight(fr *flight.Recorder, s *siteRegion, k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS, predictedNS float64, row []float64) (copied bool) {
	rec, tok := fr.Reserve(k.ID)
	if rec == nil {
		return false // a lap collision: the recorder counted the drop
	}
	rec.SetSiteName(k.Name)
	x := s.full.Fill(rec.Features[:0], iset, t.ann)
	t1 := flight.Now()
	if len(x) > flight.MaxFeatures {
		copy(rec.Features[:], x) // Fill outgrew the record: it keeps the prefix
	}
	rec.NumFeatures = int32(min(len(x), flight.MaxFeatures))
	copy(row, x)
	predicted := int32(-1)
	chosen := t.base
	if ps := t.src.Load().s.Projectors(); ps != nil && (ps.Policy != nil || ps.Chunk != nil) {
		// The decoder doubles as the model-swap detector — one lock-free
		// load compares the compiled tree identities per record.
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
		d := fr.Decoder()
		if d == nil || d.Tree != policyTree || d.ChunkTree != chunkTree {
			d = installDecoder(fr, ps)
		}
		rec.DecoderGen = d.Gen()
	}
	t2 := flight.Now()
	rec.Iterations = int64(iset.Len())
	rec.Policy = int32(p.Policy)
	rec.Chunk = int32(p.Chunk)
	rec.Predicted = predicted
	rec.Explored = predicted >= 0 && chosen.Policy != p.Policy
	rec.ObservedNS = elapsedNS
	rec.PredictedNS = predictedNS
	rec.FeatureNS = float64(t1 - rec.TimeNS)
	rec.ModelNS = float64(t2 - t1)
	fr.Commit(tok)
	return row != nil
}

// installDecoder installs the flight-trail decoder for the current
// compiled models in fr. It allocates, so it lives off the hot path
// behind emitFlight's pointer-identity check: once per model swap (or
// recorder swap), never per launch.
//
//apollo:coldpath decoder installation runs once per model swap
func installDecoder(fr *flight.Recorder, ps *Projectors) *flight.TrailDecoder {
	var d flight.TrailDecoder
	if ps.Policy != nil {
		d.Tree, d.Src = ps.Policy.Compiled(), ps.Policy.SourceIndex()
	}
	if ps.Chunk != nil {
		d.ChunkTree, d.ChunkSrc = ps.Chunk.Compiled(), ps.Chunk.SourceIndex()
	}
	return fr.SetDecoder(d)
}

// UseTelemetry attaches (or, with nil, detaches) a telemetry recorder;
// End starts feeding it immediately, with no pause in launches. A recorder
// on the tuner's schema and blackboard gets the rows the rowWeight cadence
// keeps, each weighted; one on another schema or blackboard samples every
// launch by its own Options.SampleEvery.
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
		if s != nil {
			explored += loadNS(&s.exploredNS)
			total += loadNS(&s.totalNS)
		}
	}
	return explored / max(total, math.SmallestNonzeroFloat64)
}

// Decisions returns how many launches the tuner has parameterized: those
// Begin made with no projector set plus every region's count.
func (t *Tuner) Decisions() uint64 {
	n := t.decisions.Load()
	for _, s := range *t.sites.Load() {
		if s != nil {
			n += s.launches.Load()
		}
	}
	return n
}
