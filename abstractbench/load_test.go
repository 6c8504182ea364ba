package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"
)

// stallSession commits at once, except that call number stallAt (0-based)
// blocks for stall first.
type stallSession struct {
	calls   int
	stallAt int
	stall   time.Duration
}

func (s *stallSession) next(ctx context.Context) opResult {
	if s.calls == s.stallAt {
		time.Sleep(s.stall)
	}
	s.calls++
	return opResult{}
}

// TestOpenLoopCountsLatencyFromDueTime stalls one operation and checks that
// every request that fell due during the stall carries at least the rest of
// the stall in its latency and its generator lag.
func TestOpenLoopCountsLatencyFromDueTime(t *testing.T) {
	const (
		stall   = 200 * time.Millisecond
		stallAt = 2
	)
	s := &stallSession{stallAt: stallAt, stall: stall}
	res := runLoad(context.Background(), loadSpec{sessions: 1, rate: 100}, []session{s}, 1, time.Now(), 500*time.Millisecond)
	if res.committed() < 20 || res.committed() != res.attempted {
		t.Fatalf("committed %d of %d attempted, want all of about 50 due in the window", res.committed(), res.attempted)
	}
	// One session commits in schedule order. The stalled request left no
	// earlier than it fell due, so no request that fell due during the
	// stall can commit before stallEnd.
	stallEnd := res.commits[stallAt].due.Add(stall)
	dueDuring := 0
	for k := stallAt + 1; k < len(res.commits); k++ {
		c := res.commits[k]
		rest := stallEnd.Sub(c.due)
		if rest <= 0 {
			break
		}
		dueDuring++
		if c.latMs < ms(rest) {
			t.Errorf("request %d: latency %.3f ms, want at least the %v of stall left when it fell due", k, c.latMs, rest)
		}
		if res.lagMs[k] < ms(rest) {
			t.Errorf("request %d: generator lag %.3f ms, want at least %v", k, res.lagMs[k], rest)
		}
	}
	if dueDuring < 5 {
		t.Fatalf("only %d requests fell due during the stall", dueDuring)
	}
	if res.maxGap < stall {
		t.Errorf("max gap %v, want at least the %v stall", res.maxGap, stall)
	}
	if res.behind() {
		t.Errorf("a stall worked off within the window must not mark the run behind (end lag %.1f ms)", res.endLagMs)
	}
}

// TestOpenLoopScheduleFollowsSeed checks the offered load: about rate ×
// window arrivals, the same schedule for the same seed, another for
// another seed.
func TestOpenLoopScheduleFollowsSeed(t *testing.T) {
	dues := func(seed int64) []time.Duration {
		start := time.Now()
		res := runLoad(context.Background(), loadSpec{sessions: 4, rate: 400}, []session{&stallSession{stallAt: -1}, &stallSession{stallAt: -1}, &stallSession{stallAt: -1}, &stallSession{stallAt: -1}}, seed, start, time.Second)
		var out []time.Duration
		for _, c := range res.commits {
			out = append(out, c.due.Sub(start))
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	a, b, c := dues(3), dues(3), dues(4)
	if len(a) < 300 || len(a) > 500 {
		t.Fatalf("%d arrivals in 1s at 400/s", len(a))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("the same seed gave two schedules")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("two seeds gave one schedule")
	}
}

func TestClosedLoopCountsLatencyFromSend(t *testing.T) {
	s := &stallSession{stallAt: 1, stall: 50 * time.Millisecond}
	res := runLoad(context.Background(), loadSpec{sessions: 1}, []session{s}, 1, time.Now(), 100*time.Millisecond)
	if len(res.lagMs) != 0 {
		t.Fatalf("a closed loop has no schedule, yet %d lags were recorded", len(res.lagMs))
	}
	if res.latMs[1] < 50 || res.latMs[0] > 50 || res.latMs[2] > 50 {
		t.Fatalf("latencies %v: only the stalled operation should carry the stall", res.latMs[:3])
	}
}

// fakeWorkload is a workload whose cluster is a set of scripted sessions
// and replicas that always agree.
func fakeWorkload(load loadSpec, newSession func() session) workload {
	return workload{
		name:   "fake",
		load:   load,
		slices: 2,
		build: func(p *probes, seed int64) (*target, error) {
			t := &target{
				f:        1,
				states:   func() [][]replicaState { return [][]replicaState{{{seq: 1}, {seq: 1}}} },
				switches: func() uint64 { return 0 },
				stop:     func() {},
			}
			for i := 0; i < load.sessions; i++ {
				t.sessions = append(t.sessions, newSession())
			}
			return t, nil
		},
	}
}

// TestBehindScheduleIsInvalid stalls the generator past the window's end:
// the run must be refused as invalid, not reported.
func TestBehindScheduleIsInvalid(t *testing.T) {
	w := fakeWorkload(loadSpec{sessions: 1, rate: 100}, func() session {
		// Call 0 primes the cluster; call 1 is the window's first request.
		return &stallSession{stallAt: 1, stall: maxGenLag + 300*time.Millisecond}
	})
	rep, err := measure(w, 1, 200*time.Millisecond, false, io.Discard)
	if !errors.Is(err, errInvalid) || rep != nil {
		t.Fatalf("measure = %+v, %v; want no report and an invalid-run error", rep, err)
	}

	w = fakeWorkload(loadSpec{sessions: 1, rate: 100}, func() session { return &stallSession{stallAt: -1} })
	rep, err = measure(w, 1, 200*time.Millisecond, false, io.Discard)
	if err != nil || !rep.Correct || rep.Failed != 0 {
		t.Fatalf("on-schedule run: measure = %+v, %v", rep, err)
	}
	if _, ok := rep.Metrics["setup_s"]; !ok || len(rep.Metrics) != 6 {
		t.Fatalf("end-to-end metrics %v, want the six", rep.Metrics)
	}
}
