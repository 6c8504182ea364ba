// Command abstractbench measures the composition plane end to end on four
// workloads and, in a separate traced run, layer by layer. One run builds
// the cluster in this process, drives it for --seconds, checks every reply
// against a property or a model kept here, and prints one JSON result as its
// last line of output. See README.md for the workloads and metrics.
//
//	abstractbench --workload zlight-paced --seed 1 --seconds 20 --trace 0
//	abstractbench --repeat 10 --workload all --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes.
const (
	exitOK      = 0
	exitError   = 1
	exitUsage   = 2
	exitInvalid = 3 // the run measured something other than its workload
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abstractbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (zlight-paced, chain-saturated, kv-tcp, aliph-crash; \"all\" with --repeat)")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics of an untraced one")
	repeat := fs.Int("repeat", 0, "run each workload this many times (seeds seed, seed+1, ...) and print the median and quartiles of every metric")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "abstractbench: --seconds must be positive and --trace 0 or 1")
		return exitUsage
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *repeat > 0 {
		return repeatRuns(*name, *seed, *seconds, *trace, *repeat, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "abstractbench: unknown workload %q\n", *name)
		return exitUsage
	}
	rep, err := measure(w, *seed, window, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "abstractbench: %s: %v\n", w.name, err)
		if errors.Is(err, errInvalid) {
			return exitInvalid
		}
		return exitError
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "abstractbench: %v\n", err)
		return exitError
	}
	fmt.Fprintln(stdout, string(out))
	return exitOK
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line of one run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run that did not apply its workload as specified.
var errInvalid = errors.New("invalid run")

// setupRounds is how many times an untraced run builds its cluster and
// primes it to the first committed reply; setup_s is the median. The last
// build is the one measured.
const setupRounds = 31

// drainTimeout bounds how long the window's last operations may take to
// commit after it ends; agreeTimeout how long the replicas may take to
// reach the same applied state after that.
const (
	drainTimeout = 30 * time.Second
	agreeTimeout = 5 * time.Second
)

// reading is a point-in-time read of the counters the per-layer metrics
// difference.
type reading struct {
	at         time.Time
	numGC      uint32
	switches   uint64
	localMsgs  uint64
	reg        registryView
	appCalls   uint64
	appTime    time.Duration
	encCalls   uint64
	encTime    time.Duration
	flushCalls uint64
	flushTime  time.Duration
}

func read(t *target, p *probes) reading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := reading{at: time.Now(), numGC: ms.NumGC, switches: t.switches()}
	if t.localMsgs != nil {
		r.localMsgs = t.localMsgs()
	}
	if p != nil {
		r.reg = p.view()
		r.appCalls, r.appTime = p.app.read()
		r.encCalls, r.encTime = p.encode.read()
		r.flushCalls, r.flushTime = p.flush.read()
	}
	return r
}

// mark is the process's CPU time and allocated bytes at one instant.
type mark struct {
	at     time.Time
	cpu    time.Duration
	allocs uint64
}

func readMark() mark {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	m := mark{at: time.Now(), allocs: s[0].Value.Uint64()}
	// Getrusage on this process fails only for an invalid argument.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return m
}

// markSlices reads a mark at each inner boundary of a window cut into n
// equal slices, and returns a function that waits for the last of them.
func markSlices(start time.Time, window time.Duration, n int) func() []mark {
	done := make(chan []mark, 1)
	go func() {
		var marks []mark
		for j := 1; j < n; j++ {
			time.Sleep(time.Until(start.Add(time.Duration(j) * window / time.Duration(n))))
			marks = append(marks, readMark())
		}
		done <- marks
	}()
	return func() []mark { return <-done }
}

// sliceStat is what one slice of the window measured.
type sliceStat struct {
	meanMs, rps, cpuUs, allocKB float64
}

// sliceStats splits the committed operations (in commit order) at the
// marks and returns, for every slice in which something committed, the
// slice's mean latency, throughput, and CPU time and bytes allocated per
// committed operation.
func sliceStats(commits []commit, marks []mark) []sliceStat {
	var out []sliceStat
	i := 0
	for j := 1; j < len(marks); j++ {
		lo, hi := marks[j-1], marks[j]
		var lat []float64
		for ; i < len(commits) && commits[i].at.Before(hi.at); i++ {
			lat = append(lat, commits[i].latMs)
		}
		if len(lat) == 0 {
			continue
		}
		n := len(lat)
		out = append(out, sliceStat{
			meanMs:  mean(lat),
			rps:     float64(n) / hi.at.Sub(lo.at).Seconds(),
			cpuUs:   perOp(us(hi.cpu-lo.cpu), n),
			allocKB: perOp(float64(hi.allocs-lo.allocs)/1024, n),
		})
	}
	return out
}

// medianOf returns the median of one field over the slices.
func medianOf(stats []sliceStat, field func(sliceStat) float64) float64 {
	xs := make([]float64, len(stats))
	for i, st := range stats {
		xs[i] = field(st)
	}
	return median(xs)
}

// measure runs one workload once and returns its result line, printing
// diagnostics (tail latencies with sample counts, setup rounds) to diag.
func measure(w workload, seed int64, window time.Duration, traced bool, diag io.Writer) (*report, error) {
	var p *probes
	rounds := setupRounds
	if traced {
		p = newProbes(w.traceEvery)
		rounds = 1
	}
	attempted, failed := 0, 0
	var setups []float64
	var t *target
	for i := 0; i < rounds; i++ {
		// Collect the previous round's garbage first, so that no round
		// pays for another's.
		runtime.GC()
		start := time.Now()
		tgt, err := w.build(p, seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		r := tgt.sessions[0].next(ctx)
		cancel()
		setups = append(setups, time.Since(start).Seconds())
		attempted++
		if r.err != nil {
			tgt.stop()
			return nil, fmt.Errorf("setup: first request: %w", r.err)
		}
		if r.bad {
			failed++
		}
		if i < rounds-1 {
			tgt.stop()
		} else {
			t = tgt
		}
	}
	defer t.stop()

	// Only the sharded plane has a merge lag. Elsewhere the registry is not
	// snapshotted mid-window: obs.Registry fills in a series registered while
	// the run switches instances outside its lock, so a concurrent Snapshot
	// races with it.
	var lag *gaugeSampler
	if p != nil && t.sharded {
		lag = sampleGauge(p, "shard_merge_lag", 5*time.Millisecond)
	}
	runtime.GC()
	before := read(t, p)
	start := readMark()
	waitMarks := markSlices(start.at, window, w.slices)
	crashDone := make(chan struct{})
	if w.crashAt > 0 {
		at := min(w.crashAt, window/2)
		go func() {
			defer close(crashDone)
			time.Sleep(time.Until(start.at.Add(at)))
			t.crash()
		}()
	} else {
		close(crashDone)
	}
	ctx, cancel := context.WithTimeout(context.Background(), window+drainTimeout)
	defer cancel()
	lr := runLoad(ctx, w.load, t.sessions, seed, start.at, window)
	<-crashDone
	marks := append(append([]mark{start}, waitMarks()...), readMark())
	after := read(t, p)
	var mergeLag float64
	if lag != nil {
		mergeLag = lag.finish()
	}
	fmt.Fprintf(diag, "# %s seed=%d window=%v traced=%v committed=%d failed=%d bad=%d switches=%d max-gap=%.1fms max-lag=%.1fms end-lag=%.1fms\n",
		w.name, seed, window, traced, lr.committed(), lr.failed, lr.bad, after.switches-before.switches, ms(lr.maxGap), lr.maxLagMs(), lr.endLagMs)
	if lr.behind() {
		return nil, fmt.Errorf("%w: at the end of the window the generator sent a request %.1f ms after it fell due (limit %v)", errInvalid, lr.endLagMs, maxGenLag)
	}
	if lr.committed() == 0 {
		return nil, fmt.Errorf("no operation committed (first error: %v)", lr.firstErr)
	}

	actx, acancel := context.WithTimeout(context.Background(), agreeTimeout)
	agreeErr := awaitAgreement(actx, t.states, t.f+1)
	acancel()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	attempted += lr.attempted + 1 // the agreement check counts as one operation
	failed += lr.failed + lr.bad
	if agreeErr != nil {
		failed++
	}
	rep := &report{
		Correct:   lr.bad == 0 && agreeErr == nil,
		Attempted: attempted,
		Failed:    failed,
	}
	lat := sortedCopy(lr.latMs)
	slices := sliceStats(lr.commits, marks)
	e2e := map[string]metric{
		"commit_p50_ms":    {percentile(lat, 50), "ms"},
		"commit_mean_ms":   {medianOf(slices, func(s sliceStat) float64 { return s.meanMs }), "ms"},
		"throughput_rps":   {medianOf(slices, func(s sliceStat) float64 { return s.rps }), "1/s"},
		"alloc_kb_per_op":  {medianOf(slices, func(s sliceStat) float64 { return s.allocKB }), "KB"},
		"heap_retained_mb": {float64(mem.HeapAlloc) / (1 << 20), "MB"},
		"setup_s":          {median(setups), "s"},
	}
	fmt.Fprintf(diag, "# latency ms (%d samples): p50=%.4f p90=%.4f p99=%.4f p99.9=%.4f max=%.4f; samples beyond p90=%d p99=%d p99.9=%d\n",
		len(lat), percentile(lat, 50), percentile(lat, 90), percentile(lat, 99), percentile(lat, 99.9), percentile(lat, 100),
		beyond(lat, 90), beyond(lat, 99), beyond(lat, 99.9))
	fmt.Fprintf(diag, "# setup rounds s: %v\n", setups)
	fmt.Fprintf(diag, "# process cpu us/op (median over slices): %.2f\n", medianOf(slices, func(s sliceStat) float64 { return s.cpuUs }))
	for j, st := range slices {
		fmt.Fprintf(diag, "# slice %d: mean=%.4fms rps=%.1f cpu=%.2fus/op alloc=%.3fKB/op\n", j, st.meanMs, st.rps, st.cpuUs, st.allocKB)
	}
	if agreeErr != nil {
		fmt.Fprintf(diag, "# agreement FAILED: %v\n", agreeErr)
	}
	if lr.firstErr != nil {
		fmt.Fprintf(diag, "# first invocation error: %v\n", lr.firstErr)
	}
	if !traced {
		rep.Metrics = e2e
		return rep, nil
	}
	fmt.Fprintf(diag, "# traced end-to-end:")
	for _, k := range sortedKeys(e2e) {
		fmt.Fprintf(diag, " %s=%.4f", k, e2e[k].Value)
	}
	fmt.Fprintln(diag)
	rep.Metrics = layerMetrics(t, p, before, after, lr, mergeLag)
	rep.Metrics["process.cpu_us_per_op"] = metric{medianOf(slices, func(s sliceStat) float64 { return s.cpuUs }), "us"}
	return rep, nil
}

// beyond counts the samples strictly above the p-th percentile.
func beyond(sorted []float64, p float64) int {
	v := percentile(sorted, p)
	n := 0
	for i := len(sorted) - 1; i >= 0 && sorted[i] > v; i-- {
		n++
	}
	return n
}

// layerMetrics derives the per-layer metrics of a traced run from the
// difference of two readings taken around the window.
func layerMetrics(t *target, p *probes, before, after reading, lr *loadResult, mergeLag float64) map[string]metric {
	ops := lr.committed()
	delta := func(name, label string) float64 {
		return after.reg.counter(name, label) - before.reg.counter(name, label)
	}
	histMean := func(name string) float64 {
		c1, s1 := after.reg.histogram(name)
		c0, s0 := before.reg.histogram(name)
		if c1 == c0 {
			return 0
		}
		return (s1 - s0) / (c1 - c0)
	}
	callMeanUs := func(c1, c0 uint64, t1, t0 time.Duration) float64 {
		if c1 == c0 {
			return 0
		}
		return us(t1-t0) / float64(c1-c0)
	}
	untrimmed := 0
	for _, h := range t.hosts() {
		if stable, trimmed := h.CheckpointStatus(); stable == 0 || trimmed == 0 {
			untrimmed++
		}
	}
	stages := stageMedians(p.spans.Snapshot(), before.at)
	poolGets := delta("authn_hmac_pool_gets_total", "")
	poolHit := 0.0
	if poolGets > 0 {
		poolHit = 1 - delta("authn_hmac_pool_misses_total", "")/poolGets
	}
	return map[string]metric{
		"stage.assemble_us":         {stages["assemble"], "us"},
		"stage.order_us":            {stages["order"], "us"},
		"stage.execute_us":          {stages["execute"], "us"},
		"stage.merge_us":            {stages["merge"], "us"},
		"stage.reply_us":            {stages["reply"], "us"},
		"host.batch_fill":           {histMean("host_batch_fill"), "req"},
		"host.gc_runs":              {delta("host_gc_runs_total", ""), "count"},
		"host.untrimmed_replicas":   {float64(untrimmed), "count"},
		"app.exec_per_op":           {perOp(float64(after.appCalls-before.appCalls), ops), "calls"},
		"app.exec_us":               {callMeanUs(after.appCalls, before.appCalls, after.appTime, before.appTime), "us"},
		"authn.macs_per_op":         {perOp(delta("authn_mac_ops_total", ""), ops), "ops"},
		"authn.hmac_pool_hit_ratio": {poolHit, "ratio"},
		"transport.msgs_per_op":     {perOp(float64(after.localMsgs-before.localMsgs), ops), "msgs"},
		"transport.frames_per_op":   {perOp(delta("transport_frames_total", `dir="out"`), ops), "frames"},
		"transport.bytes_per_op":    {perOp(delta("transport_bytes_total", `dir="out"`), ops), "B"},
		"transport.flushes_per_op":  {perOp(delta("transport_flushes_total", ""), ops), "flushes"},
		"transport.flush_kb":        {histMean("transport_flush_bytes") / 1024, "KB"},
		"wire.encode_us":            {callMeanUs(after.encCalls, before.encCalls, after.encTime, before.encTime), "us"},
		"wire.flush_us":             {callMeanUs(after.flushCalls, before.flushCalls, after.flushTime, before.flushTime), "us"},
		"shard.merge_rounds_per_op": {perOp(delta("shard_merge_rounds_total", ""), ops), "rounds"},
		"shard.merge_lag_max":       {mergeLag, "req"},
		"shard.nullops_per_op":      {perOp(delta("shard_nullops_merged_total", ""), ops), "ops"},
		"core.switches":             {float64(after.switches - before.switches), "count"},
		"core.switch_invoke_ms":     {mean(lr.switchLatMs), "ms"},
		"core.max_gap_ms":           {ms(lr.maxGap), "ms"},
		"compose.aborts":            {delta("compose_aborts_total", ""), "count"},
		"gc.cycles_per_kop":         {perOp(float64(after.numGC-before.numGC)*1000, ops), "count"},
		"gen.lag_ms":                {mean(lr.lagMs), "ms"},
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
