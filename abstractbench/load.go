package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// opResult is the outcome of one session operation.
type opResult struct {
	// err is set when the invocation did not commit.
	err error
	// bad is set when the operation committed but its reply failed the
	// benchmark's check.
	bad bool
	// switched is set when the session's client switched composition
	// instances while the operation was in flight.
	switched bool
}

// session is one client session: each call issues the session's next
// operation, waits for it to commit, and checks the reply.
type session interface {
	next(ctx context.Context) opResult
}

// loadSpec is the offered load of a workload.
type loadSpec struct {
	// sessions is the number of concurrent client sessions.
	sessions int
	// rate is the offered operations per second over all sessions; 0 makes
	// a closed loop, where each session issues its next operation as soon as
	// the previous one commits.
	rate float64
}

// maxGenLag is how late a session's last open-loop request may leave before
// the run counts as behind schedule. A stall that the system works off
// within the window only shows in the latencies of the requests due during
// it; a generator still this late at the end of the window means the
// system did not keep up with the offered rate, so the run is invalid
// rather than reported.
const maxGenLag = time.Second

// loadResult is what one measured window produced.
type loadResult struct {
	attempted int
	failed    int // invocations that did not commit
	bad       int // committed operations whose reply failed its check

	// latMs holds the commit latency of every committed operation: from
	// the due time on an open loop, from the send on a closed one.
	latMs []float64
	// switchLatMs holds the latencies of operations during which their
	// session switched instances.
	switchLatMs []float64
	// lagMs holds, for open-loop operations, how long after its due time
	// each one left.
	lagMs []float64
	// endLagMs is the largest lag among the sessions' last requests.
	endLagMs float64
	// commits lists every committed operation in commit order.
	commits []commit
	// maxGap is the longest interval within the window with no committed
	// reply, counted from the window start.
	maxGap time.Duration
	// firstErr is the first invocation error, for the diagnostic line.
	firstErr error
}

// commit is one committed operation: when it fell due, when it committed,
// and its latency.
type commit struct {
	at, due time.Time
	latMs   float64
}

// committed is the number of operations that committed.
func (r *loadResult) committed() int { return len(r.latMs) }

// maxLagMs is how late the open-loop generator sent its latest request.
func (r *loadResult) maxLagMs() float64 {
	var max float64
	for _, l := range r.lagMs {
		if l > max {
			max = l
		}
	}
	return max
}

// behind reports whether the open-loop generator was still behind its
// schedule at the end of the window.
func (r *loadResult) behind() bool { return r.endLagMs > ms(maxGenLag) }

// sessionLog is one session's record of a window, merged after the window.
type sessionLog struct {
	attempted, failed, bad int
	lat, switchLat, lag    []float64
	commits                []commit
	firstErr               error
}

// runLoad drives the sessions from start for window and returns once every
// session's last operation has finished (the drain). On an open loop each
// session draws its arrivals as a Poisson process of rate/sessions from its
// own generator seeded from seed, and keeps at most one operation in
// flight: a stalled operation delays the session's later ones, and counting
// their latency from the due time charges the stall to every request that
// fell due during it. Poisson arrivals keep the sessions from locking into
// one phase against the program's timers for a whole run.
func runLoad(ctx context.Context, spec loadSpec, sessions []session, seed int64, start time.Time, window time.Duration) *loadResult {
	if len(sessions) != spec.sessions {
		panic(fmt.Sprintf("runLoad: %d sessions for a %d-session load", len(sessions), spec.sessions))
	}
	end := start.Add(window)
	logs := make([]sessionLog, len(sessions))
	var meanGap float64 // mean interarrival time of one session, in ns
	if spec.rate > 0 {
		meanGap = float64(spec.sessions) / spec.rate * float64(time.Second)
	}
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		go func(log *sessionLog, s session) {
			defer wg.Done()
			due := start
			for {
				if spec.rate > 0 {
					due = due.Add(time.Duration(rng.ExpFloat64() * meanGap))
					if !due.Before(end) {
						return
					}
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				sent := time.Now()
				if spec.rate == 0 {
					if !sent.Before(end) {
						return
					}
					due = sent
				} else {
					log.lag = append(log.lag, ms(sent.Sub(due)))
				}
				log.attempted++
				r := s.next(ctx)
				done := time.Now()
				switch {
				case r.err != nil:
					log.failed++
					if log.firstErr == nil {
						log.firstErr = r.err
					}
				case r.bad:
					log.bad++
				default:
					l := ms(done.Sub(due))
					log.lat = append(log.lat, l)
					log.commits = append(log.commits, commit{at: done, due: due, latMs: l})
					if r.switched {
						log.switchLat = append(log.switchLat, l)
					}
				}
				if ctx.Err() != nil {
					return
				}
			}
		}(&logs[i], s)
	}
	wg.Wait()
	return mergeLogs(logs, start)
}

func mergeLogs(logs []sessionLog, start time.Time) *loadResult {
	res := &loadResult{}
	var commits []commit
	for i := range logs {
		l := &logs[i]
		res.attempted += l.attempted
		res.failed += l.failed
		res.bad += l.bad
		res.latMs = append(res.latMs, l.lat...)
		res.switchLatMs = append(res.switchLatMs, l.switchLat...)
		res.lagMs = append(res.lagMs, l.lag...)
		if n := len(l.lag); n > 0 && l.lag[n-1] > res.endLagMs {
			res.endLagMs = l.lag[n-1]
		}
		commits = append(commits, l.commits...)
		if res.firstErr == nil {
			res.firstErr = l.firstErr
		}
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i].at.Before(commits[j].at) })
	prev := start
	for _, c := range commits {
		if gap := c.at.Sub(prev); gap > res.maxGap {
			res.maxGap = gap
		}
		prev = c.at
	}
	res.commits = commits
	return res
}
