// Package lifecyclemod is the lifecycle-analyzer corpus: component
// goroutines paired (and unpaired) with the stop signal their
// Close/Stop provably fires, Close methods that fire but never join,
// and ctxok waivers on deliberate process-lifetime workers.
package lifecyclemod

var sunk int

func consume(v int) { sunk += v }

// Pump is the well-formed component: the ctor spawns a worker ranging
// over the work channel, Close closes it and joins on done.
type Pump struct {
	work chan int
	done chan struct{}
}

func NewPump() *Pump {
	p := &Pump{work: make(chan int), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *Pump) loop() {
	defer close(p.done)
	for v := range p.work {
		consume(v)
	}
}

func (p *Pump) Close() {
	close(p.work)
	<-p.done
}

// Spinner's worker has no stop signal at all.
type Spinner struct{ n int }

func (s *Spinner) Start() {
	go func() { // want `spawns a long-running goroutine with no stop signal`
		for {
			s.n++
		}
	}()
}

func (s *Spinner) Close() {}

// Sink's Close fires the channel but returns without waiting for the
// worker to drain and exit.
type Sink struct {
	in chan int
}

func NewSink() *Sink {
	s := &Sink{in: make(chan int)}
	go s.drain() // want `Sink\.Close closes in but never joins the worker goroutines`
	return s
}

func (s *Sink) drain() {
	for v := range s.in {
		consume(v)
	}
}

func (s *Sink) Close() { close(s.in) }

// Pool ranges over a field channel but has no stop method to fire it.
type Pool struct {
	jobs chan int
}

func (p *Pool) Start() {
	go func() { // want `has no Close/Stop/Shutdown to fire it`
		for j := range p.jobs {
			consume(j)
		}
	}()
}

// Orphan's quit channel exists, but nothing ever closes or signals it.
type Orphan struct{ v int }

func (o *Orphan) Start() {
	quit := make(chan struct{})
	go func() { // want `stopped by its own local channel quit; start it through bg`
		for {
			select {
			case <-quit:
				return
			default:
				o.v++
			}
		}
	}()
}

func (o *Orphan) Close() {}

// Relay's stop channel is a parameter: the caller owns and fires it.
type Relay struct{ out chan int }

func (r *Relay) Start(stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			case r.out <- 1:
			}
		}
	}()
}

func (r *Relay) Close() {}

// Burner is a deliberate process-lifetime worker, waived with a reason.
type Burner struct{ n int }

func (b *Burner) Start() {
	go func() { //apollo:ctxok test fixture: sampler deliberately runs for the process lifetime
		for {
			b.n++
		}
	}()
}

func (b *Burner) Close() {}
