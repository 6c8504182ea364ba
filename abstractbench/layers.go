package main

import (
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/obs"
	"abstractbft/internal/transport"
)

// probes is the instrumentation of a traced run: the program's own metrics
// registry and stage tracer, plus timing wrappers around the interfaces the
// benchmark hands the program (the application constructor and the TCP wire
// codec). Untraced runs use a nil *probes, which leaves every hook off.
type probes struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	spans  *obs.SpanRing
	app    callTimer // app.Application.Execute
	encode callTimer // transport.StreamEncoder.Encode
	flush  callTimer // transport.StreamEncoder.Flush
}

// spanRingSize bounds the spans a traced run keeps; the sample rates of the
// workloads keep a 20 s window's sampled requests inside it.
const spanRingSize = 1 << 17

func newProbes(traceEvery int) *probes {
	reg := obs.NewRegistry()
	spans := obs.NewSpanRing("abstractbench", spanRingSize)
	return &probes{reg: reg, spans: spans, tracer: obs.NewTracerRing(reg, traceEvery, spans)}
}

func (p *probes) registry() *obs.Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

func (p *probes) stageTracer() *obs.Tracer {
	if p == nil {
		return nil
	}
	return p.tracer
}

// callTimer counts calls and the time spent in them.
type callTimer struct {
	calls atomic.Uint64
	ns    atomic.Int64
}

func (c *callTimer) since(t time.Time) {
	c.ns.Add(int64(time.Since(t)))
	c.calls.Add(1)
}

func (c *callTimer) read() (calls uint64, total time.Duration) {
	return c.calls.Load(), time.Duration(c.ns.Load())
}

// wrapApp returns newApp with every application it builds timed, or newApp
// itself when p is nil.
func (p *probes) wrapApp(newApp func() app.Application) func() app.Application {
	if p == nil {
		return newApp
	}
	return func() app.Application { return timedApp{Application: newApp(), t: &p.app} }
}

// timedApp times Execute; clones stay timed, since hosts clone the
// application when a new composition instance takes over.
type timedApp struct {
	app.Application
	t *callTimer
}

func (a timedApp) Execute(command []byte) []byte {
	start := time.Now()
	out := a.Application.Execute(command)
	a.t.since(start)
	return out
}

func (a timedApp) Clone() app.Application {
	return timedApp{Application: a.Application.Clone(), t: a.t}
}

// wrapCodec returns c with its stream encoders timed, or c itself when p is
// nil.
func (p *probes) wrapCodec(c transport.Codec) transport.Codec {
	if p == nil {
		return c
	}
	return timedCodec{Codec: c, p: p}
}

type timedCodec struct {
	transport.Codec
	p *probes
}

func (c timedCodec) NewEncoder(w io.Writer) transport.StreamEncoder {
	return timedEncoder{enc: c.Codec.NewEncoder(w), p: c.p}
}

type timedEncoder struct {
	enc transport.StreamEncoder
	p   *probes
}

func (e timedEncoder) Encode(env *transport.Envelope) error {
	start := time.Now()
	err := e.enc.Encode(env)
	e.p.encode.since(start)
	return err
}

func (e timedEncoder) Flush() error {
	start := time.Now()
	err := e.enc.Flush()
	e.p.flush.since(start)
	return err
}

// registryView sums a registry snapshot by metric family, so per-shard and
// per-direction series can be read whole or by one label.
type registryView struct{ snap obs.Snapshot }

func (p *probes) view() registryView { return registryView{snap: p.reg.Snapshot()} }

func family(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// counter sums every series of the family whose key contains label ("" for
// all of them).
func (v registryView) counter(name, label string) float64 {
	var sum float64
	for k, c := range v.snap.Counters {
		if family(k) == name && strings.Contains(k, label) {
			sum += float64(c)
		}
	}
	return sum
}

// histogram sums the observation count and total of every series of the
// family.
func (v registryView) histogram(name string) (count, sum float64) {
	for k, h := range v.snap.Histograms {
		if family(k) == name {
			count += float64(h.Count)
			sum += h.Sum
		}
	}
	return count, sum
}

// gaugeMax returns the largest value among the family's series.
func (v registryView) gaugeMax(name string) float64 {
	var max float64
	for k, g := range v.snap.Gauges {
		if family(k) == name && g > max {
			max = g
		}
	}
	return max
}

// gaugeSampler records the largest value a gauge family reached while it ran.
type gaugeSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	max  float64
}

func sampleGauge(p *probes, name string, every time.Duration) *gaugeSampler {
	s := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				v := p.view().gaugeMax(name)
				s.mu.Lock()
				if v > s.max {
					s.max = v
				}
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns the maximum seen.
func (s *gaugeSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// stageMedians reads the spans of requests sampled in the window and
// returns, per lifecycle stage, the median span duration in microseconds.
// The reply stage is a point event (a RESP leaving a replica), so its entry
// is instead the reply path of each traced request: from the last replica
// event before the client committed (a RESP leaving, or an execution
// ending where the protocol records no RESP event, as on Chain's tail) to
// that commit.
func stageMedians(spans []obs.Span, from time.Time) map[string]float64 {
	durs := make(map[string][]float64)
	type trace struct {
		commit    int64
		lastReply int64
	}
	traces := make(map[uint64]*trace)
	get := func(id uint64) *trace {
		t := traces[id]
		if t == nil {
			t = &trace{}
			traces[id] = t
		}
		return t
	}
	// replyEvents are the instants a replica handed a reply on: RESPs
	// leaving and executions ending.
	type event struct {
		trace uint64
		at    int64
	}
	var replyEvents []event
	for _, sp := range spans {
		if sp.Start < from.UnixNano() {
			continue
		}
		switch sp.Stage {
		case obs.StageName(obs.StageReply):
			replyEvents = append(replyEvents, event{sp.TraceID, sp.Start})
		case obs.StageName(obs.StageSend):
			get(sp.TraceID).commit = sp.Start + sp.DurationNs
		default:
			durs[sp.Stage] = append(durs[sp.Stage], us(time.Duration(sp.DurationNs)))
			if sp.Stage == obs.StageName(obs.StageExecute) {
				replyEvents = append(replyEvents, event{sp.TraceID, sp.Start + sp.DurationNs})
			}
		}
	}
	for _, e := range replyEvents {
		t, ok := traces[e.trace]
		if ok && e.at <= t.commit && e.at > t.lastReply {
			t.lastReply = e.at
		}
	}
	var replyPath []float64
	for _, t := range traces {
		if t.lastReply > 0 {
			replyPath = append(replyPath, us(time.Duration(t.commit-t.lastReply)))
		}
	}
	out := make(map[string]float64)
	for stage, d := range durs {
		out[stage] = median(d)
	}
	out[obs.StageName(obs.StageReply)] = median(replyPath)
	return out
}
