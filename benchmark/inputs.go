package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"apollo/internal/client"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/raja"
	"apollo/internal/stats"
	"apollo/internal/telemetry"
)

// requestInputs is what set-up generates for the request phase. Vectors
// are laid out by the Table I schema, which both published models use.
type requestInputs struct {
	models [2]*core.Model // PUT alternates these; their trees differ, so every swap changes the ETag
	bodies [2][]byte      // their model JSON
	pool   [][]float64    // unique CleverLeaf launch vectors
	hot    []int32        // the hot set: indices into pool
	rows   *dataset.Frame // CleverLeaf sweep rows, the source of telemetry batches
	ref    []byte         // a refRows-row telemetry body: what the predict reference decodes
	tsIdx  int            // index of the timestep feature: cold vectors differ in it
	cold   atomic.Uint64  // never-repeating stream position
}

// vecRef names one predict vector without holding it: a pool vector as
// it is (the hot set) or with its timestep replaced by ts, which no
// earlier request carried, so its memo key is new. An event keeps
// references, not vectors, so what a run holds in memory does not grow
// with the service's throughput by a third of a kilobyte a vector.
type vecRef struct {
	pool int32
	ts   float64 // 0: the pool vector unchanged
}

// vector draws one predict vector in the workload's hot/cold mix.
func (in *requestInputs) vector(rng *dataset.RNG, hotShare float64) vecRef {
	if rng.Float64() < hotShare {
		return vecRef{pool: in.hot[rng.Intn(len(in.hot))]}
	}
	return vecRef{pool: int32(rng.Intn(len(in.pool))), ts: 1e7 + float64(in.cold.Add(1))}
}

// fill writes the vector v names into dst and returns it.
func (in *requestInputs) fill(dst []float64, v vecRef) []float64 {
	dst = append(dst[:0], in.pool[v.pool]...)
	if v.ts != 0 {
		dst[in.tsIdx] = v.ts
	}
	return dst
}

func newRequestInputs(seed uint64) (*requestInputs, error) {
	desc, err := descriptor("CleverLeaf")
	if err != nil {
		return nil, err
	}
	frame, err := recordSweep(desc, "sod", 32, trainSteps, seed)
	if err != nil {
		return nil, err
	}
	extra, err := recordSweep(desc, "triple_pt", 48, trainSteps, seed)
	if err != nil {
		return nil, err
	}
	frame.Append(extra)
	schema := features.TableI()
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		return nil, err
	}
	in := &requestInputs{pool: set.X, rows: frame, tsIdx: schema.Index(features.Timestep)}
	for i, cfg := range []core.TrainConfig{{}, {Tree: dtree.Config{MaxDepth: 4}}} {
		if in.models[i], err = core.Train(set, cfg); err != nil {
			return nil, err
		}
		if in.bodies[i], err = in.models[i].MarshalJSON(); err != nil {
			return nil, err
		}
	}
	rng := dataset.NewRNG(seed)
	perm := rng.Perm(len(in.pool))
	for i := 0; i < hotSetSize; i++ {
		in.hot = append(in.hot, int32(perm[i%len(perm)]))
	}
	ref, err := encodeBatches(modelServe, frame, rng, 1, refRows)
	if err != nil {
		return nil, err
	}
	in.ref = ref[0]
	return in, nil
}

// encodeBatches pre-encodes count telemetry batches of perBatch rows for
// model, drawn from frame by rng. The generator sends them round-robin:
// the service does the same work for a repeated body as for a new one
// (ingest has no cache), and encoding 11k floats per request would make
// the generator, not the service, the slow side.
func encodeBatches(model string, frame *dataset.Frame, rng *dataset.RNG, count, perBatch int) ([][]byte, error) {
	out := make([][]byte, count)
	for b := range out {
		batch := dataset.NewFrame(frame.Cols()...)
		for i := 0; i < perBatch; i++ {
			batch.AddRow(frame.Row(rng.Intn(frame.Len())))
		}
		data, err := json.Marshal(telemetry.NewBatch(model, batch))
		if err != nil {
			return nil, err
		}
		out[b] = data
	}
	return out, nil
}

// bareDecode is the reference operation of every ratio but the launch
// path's: what any consumer of a telemetry batch must at least do with
// its body, using only the standard decoder. It is processor-bound work
// of the same kind as the service's and the trainer's (parse floats,
// allocate rows), so it speeds up and slows down with the host as they
// do, and it touches neither the scheduler nor a socket, whose timing on
// a shared host varies from process to process on its own.
func bareDecode(body []byte) (time.Duration, error) {
	start := time.Now()
	var b telemetry.Batch
	if err := json.Unmarshal(body, &b); err != nil {
		return 0, err
	}
	if err := b.Validate(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// undisturbed is the reference time a group of bareDecode timings made
// close together stands for: their lower quartile. Such timings fall into
// a fast mode and a slow one about half as long again, the slow ones
// having overlapped something else: a collection the service's garbage set
// off, a request served on the other CPU. What share falls in which mode
// changes from one window to the next, which moved a median by a third
// while the operation being measured had not moved. The fast mode is the
// undisturbed decode, and that is what follows the host's speed.
func undisturbed(decodeNS []float64) float64 { return stats.Percentile(decodeNS, 25) }

// appendVector appends x as a JSON array.
func appendVector(b []byte, x []float64) []byte {
	b = append(b, '[')
	for i, v := range x {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// predictBody encodes a POST /predict body: one vector under "x", or
// several under "batch". x is scratch for one vector.
func (in *requestInputs) predictBody(b []byte, x []float64, model string, vectors []vecRef) ([]byte, []float64) {
	b = append(b[:0], `{"model":"`...)
	b = append(b, model...)
	if len(vectors) == 1 {
		b = append(b, `","x":`...)
		x = in.fill(x, vectors[0])
		b = appendVector(b, x)
		return append(b, '}'), x
	}
	b = append(b, `","batch":[`...)
	for i, v := range vectors {
		if i > 0 {
			b = append(b, ',')
		}
		x = in.fill(x, v)
		b = appendVector(b, x)
	}
	return append(b, "]}"...), x
}

// loopInputs is what set-up generates for the loop phase.
type loopInputs struct {
	stale *core.Model    // omp-everywhere: wrong for every small launch in pool
	pool  *dataset.Frame // LULESH launches, each under seq and under omp
	rng   *dataset.RNG
}

// staleChampion trains a model that predicts omp for every launch, from
// synthetic rows in which omp always wins.
func staleChampion() (*core.Model, error) {
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{32, 256, 2048, 16384, 131072} {
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, schema.Len()+3)
			row[ni] = float64(n)
			row[schema.Len()] = float64(pol)
			row[schema.Len()+2] = float64(n)
			if pol == raja.SeqExec {
				row[schema.Len()+2] *= 100
			}
			frame.AddRow(row)
		}
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		return nil, err
	}
	return core.Train(set, core.TrainConfig{})
}

func newLoopInputs(seed uint64) (*loopInputs, error) {
	desc, err := descriptor("LULESH")
	if err != nil {
		return nil, err
	}
	sweep, err := recordSweep(desc, "sedov", 8, trainSteps, seed)
	if err != nil {
		return nil, err
	}
	extra, err := recordSweep(desc, "sedov", 12, trainSteps, seed)
	if err != nil {
		return nil, err
	}
	sweep.Append(extra)
	// Keep the two variants the policy model chooses between.
	chunk := sweep.MustCol(core.ColChunk)
	pool := sweep.Filter(func(row []float64) bool { return int(row[chunk]) == raja.DefaultChunk })
	stale, err := staleChampion()
	if err != nil {
		return nil, err
	}
	return &loopInputs{stale: stale, pool: pool, rng: dataset.NewRNG(seed ^ 0x5eed)}, nil
}

// rows draws n telemetry rows: pool launches with fresh measurement noise
// on the time column.
func (in *loopInputs) rows(n int) *dataset.Frame {
	out := dataset.NewFrame(in.pool.Cols()...)
	timeCol := in.pool.MustCol(core.ColTimeNS)
	for i := 0; i < n; i++ {
		row := append([]float64(nil), in.pool.Row(in.rng.Intn(in.pool.Len()))...)
		row[timeCol] *= 1 + noiseAmp*(2*in.rng.Float64()-1)
		out.AddRow(row)
	}
	return out
}

// environment is everything set-up builds and the phases measure.
type environment struct {
	apps []appModels
	svc  *service
	cl   *client.Client // a stock model-service client on the service
	req  *requestInputs
	loop *loopInputs
	// acked counts the rows the service has acknowledged per model, for
	// the read-back oracles.
	acked map[string]int
	// refBody is one ingestRows-row telemetry body, what bareDecode
	// decodes as the loop phase's reference operation.
	refBody []byte
}

func (e *environment) close() error {
	if e.svc == nil {
		return nil
	}
	return e.svc.stop()
}

// setUp builds one complete environment under dir: trains the launch
// models, generates the request and loop inputs, starts the service,
// publishes the models, and fills the loop spool through POST /telemetry.
func (r *run) setUp(ctx context.Context, dir string) (env *environment, err error) {
	env = &environment{acked: map[string]int{}}
	if env.apps, err = setupLaunch(r.w, r.seed, r.trace); err != nil {
		return nil, err
	}
	if env.req, err = newRequestInputs(r.seed); err != nil {
		return nil, fmt.Errorf("request inputs: %w", err)
	}
	if env.loop, err = newLoopInputs(r.seed); err != nil {
		return nil, fmt.Errorf("loop inputs: %w", err)
	}
	ref, err := encodeBatches(modelLoop, env.loop.pool, env.loop.rng, 1, ingestRows)
	if err != nil {
		return nil, err
	}
	env.refBody = ref[0]
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if env.svc, err = startService(dir); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, env.svc.stop())
		}
	}()
	env.cl = client.New(env.svc.url, client.Options{})
	for _, name := range []string{modelServe, modelIngest, modelProbe} {
		if _, err := env.cl.Push(name, env.req.models[0]); err != nil {
			return nil, err
		}
	}
	if _, err := env.cl.Push(modelLoop, env.loop.stale); err != nil {
		return nil, err
	}
	if err := env.postRows(ctx, modelLoop, env.loop.rows(r.w.WindowRows)); err != nil {
		return nil, fmt.Errorf("filling the loop spool: %w", err)
	}
	return env, nil
}

// postRows ingests frame for model through the stock client, ingestRows
// rows a batch, and counts the acknowledged rows.
func (e *environment) postRows(ctx context.Context, model string, frame *dataset.Frame) error {
	for lo := 0; lo < frame.Len(); lo += ingestRows {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + ingestRows
		if hi > frame.Len() {
			hi = frame.Len()
		}
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		if err := e.cl.PostTelemetry(telemetry.NewBatch(model, frame.SelectRows(idx))); err != nil {
			return err
		}
		e.acked[model] += hi - lo
	}
	return nil
}
