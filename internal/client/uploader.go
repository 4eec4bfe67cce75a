package client

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"apollo/internal/dataset"
	"apollo/internal/telemetry"
)

// PostTelemetry ships one batch to the service's POST /telemetry
// endpoint. It does not touch the model-fetch backoff state — telemetry
// is best-effort and must never delay a model refresh.
func (c *Client) PostTelemetry(b *telemetry.Batch) error {
	// A count and its comma: about eight bytes a value.
	body, err := telemetry.EncodeBatch(make([]byte, 0, 512+8*len(b.Columns)*len(b.Rows)), b)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/telemetry", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	c.fetches.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: posting telemetry for %s: %w", b.Model, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) //apollo:errok best-effort error-body snippet; the status error is being built regardless
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: posting telemetry for %s: %s: %s",
			b.Model, resp.Status, bytes.TrimSpace(data))
	}
	return nil
}

// UploaderOptions tunes an Uploader; the zero value picks defaults.
type UploaderOptions struct {
	// MaxPending bounds the rows retained across failed uploads
	// (default 16384). When the service stays down past the bound, the
	// oldest pending rows are discarded first: fresh telemetry is worth
	// more to a drift detector than stale telemetry.
	MaxPending int
	// Attribution (optional) supplies the model version the client is
	// currently running and the loop ID of the retrain cycle that
	// published it (both zero when unknown). Flush stamps them onto
	// every batch, so the service can attribute ingested spools to the
	// producing model version and the loop tracer can close the
	// telemetry leg of the cycle.
	Attribution func() (version int, loopID string)
}

// Uploader moves sampled measurements from an in-process
// telemetry.Recorder to the model service in batches. Upload failures
// keep the drained rows pending (bounded) and arm the client's
// full-jitter backoff schedule so a down service is not hammered.
// Behind a *FleetClient each post already failed over across the ring
// before it counts as a failure here, so the backoff only arms when the
// whole fleet is unreachable.
type Uploader struct {
	c          Service
	retry      *backoff
	model      string
	rec        *telemetry.Recorder
	max        int
	attributes func() (version int, loopID string)

	mu       sync.Mutex //apollo:lockrank 12
	pending  *dataset.Frame
	posting  chan struct{} // a POST in flight, closed at its verdict
	failures int
	nextTry  time.Time

	batches  atomic.Uint64 // batches accepted by the service
	rows     atomic.Uint64 // rows accepted by the service
	discards atomic.Uint64 // pending rows discarded to the bound
}

// NewUploader returns an uploader shipping rec's samples as model name
// through c (a *Client or a fleet-routed *FleetClient).
func NewUploader(c Service, model string, rec *telemetry.Recorder, opts UploaderOptions) *Uploader {
	if opts.MaxPending <= 0 {
		opts.MaxPending = 16384
	}
	return &Uploader{c: c, retry: c.retryPolicy(), model: model, rec: rec, max: opts.MaxPending, attributes: opts.Attribution}
}

// Batches returns how many batches the service has accepted.
func (u *Uploader) Batches() uint64 { return u.batches.Load() }

// Rows returns how many sample rows the service has accepted.
func (u *Uploader) Rows() uint64 { return u.rows.Load() }

// Discarded returns how many pending rows were dropped to the
// MaxPending bound during an extended outage.
func (u *Uploader) Discarded() uint64 { return u.discards.Load() }

// Flush drains the recorder and attempts one upload of everything
// pending. Inside a backoff window it only drains (bounded) and returns
// nil without a network attempt; a failed attempt keeps the rows for the
// next flush and arms the backoff. The rows being posted are taken out
// of the pending frame before the network call, so u.mu is never held
// across I/O and concurrent flushes cannot double-send. One POST is in
// flight at a time: a Flush that finds another's rows mid-POST waits for
// its verdict first, so when Flush returns every row drained before the
// call has been acknowledged or is back in pending.
func (u *Uploader) Flush() error {
	sending, inFlight := u.take()
	for ; inFlight != nil; sending, inFlight = u.take() {
		<-inFlight
	}
	if sending == nil {
		return nil
	}

	b := telemetry.NewBatch(u.model, sending)
	if u.attributes != nil {
		b.SourceVersion, b.LoopID = u.attributes()
	}
	err := u.c.PostTelemetry(b)

	u.mu.Lock()
	defer u.mu.Unlock()
	defer func() { close(u.posting); u.posting = nil }() // after the rows are booked below
	if err != nil {
		// Put the rows back ahead of anything drained meanwhile.
		if u.pending != nil {
			sending.Append(u.pending)
		}
		u.pending = sending
		u.boundPendingLocked()
		u.nextTry = u.retry.now().Add(u.retry.delay(u.failures))
		if u.failures < 30 {
			u.failures++
		}
		return err
	}
	u.batches.Add(1)
	u.rows.Add(uint64(sending.Len()))
	u.failures = 0
	u.nextTry = time.Time{}
	return nil
}

// take drains the recorder and claims everything pending for one POST, or
// nothing: with nothing pending, inside a backoff window, or — returning
// its mark — while another flush's POST is in flight.
func (u *Uploader) take() (sending *dataset.Frame, inFlight chan struct{}) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.posting != nil {
		return nil, u.posting
	}
	if f := u.rec.Drain(0); f != nil {
		if u.pending == nil {
			u.pending = f
		} else {
			u.pending.Append(f)
		}
	}
	u.boundPendingLocked()
	if u.pending == nil || u.pending.Len() == 0 || u.nextTry.After(u.retry.now()) {
		return nil, nil
	}
	sending, u.pending = u.pending, nil
	u.posting = make(chan struct{})
	return sending, nil
}

// boundPendingLocked discards the oldest pending rows past MaxPending.
func (u *Uploader) boundPendingLocked() {
	if u.pending == nil {
		return
	}
	if over := u.pending.Len() - u.max; over > 0 {
		idx := make([]int, u.max)
		for i := range idx {
			idx[i] = over + i
		}
		u.pending = u.pending.SelectRows(idx)
		u.discards.Add(uint64(over))
	}
}
