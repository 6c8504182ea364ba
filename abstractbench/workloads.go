package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/compose"
	"abstractbft/internal/core"
	"abstractbft/internal/deploy"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
	"abstractbft/internal/shard"
	"abstractbft/internal/transport"
	"abstractbft/internal/transport/wirecodec"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	load loadSpec
	// build stands up the cluster and its client sessions; the returned
	// target has not served a request yet.
	build func(p *probes, seed int64) (*target, error)
	// crashAt, when positive, stops replica crashReplica this far into the
	// window (capped at half the window).
	crashAt time.Duration
	// traceEvery is the head-sampling rate of traced runs: one request in
	// traceEvery is followed through the stages.
	traceEvery int
	// slices is how many equal slices the window is cut into; the mean
	// latency, throughput, CPU and allocation metrics are medians over the
	// slices, so a burst of interference in one slice does not move them.
	// A workload whose window is one event (a crash and its recovery)
	// keeps one slice.
	slices int
}

// crashReplica is the replica aliph-crash stops: a backup of every stage
// (not Chain's head, not Quorum's or ZLight's primary).
const crashReplica = 3

var workloads = []workload{
	{
		name:       "zlight-paced",
		load:       loadSpec{sessions: 8, rate: 1000},
		build:      func(p *probes, seed int64) (*target, error) { return buildCounter("zlight,backup", 8, p) },
		traceEvery: 4,
		slices:     20,
	},
	{
		name:       "chain-saturated",
		load:       loadSpec{sessions: 24},
		build:      func(p *probes, seed int64) (*target, error) { return buildCounter("chain,backup", 24, p) },
		traceEvery: 64,
		slices:     20,
	},
	{
		name:       "kv-tcp",
		load:       loadSpec{sessions: 8, rate: 500},
		build:      buildKVTCP,
		traceEvery: 2,
		slices:     20,
	},
	{
		name:       "aliph-crash",
		load:       loadSpec{sessions: 8, rate: 400},
		build:      func(p *probes, seed int64) (*target, error) { return buildCounter("quorum,chain,backup", 8, p) },
		crashAt:    time.Second,
		traceEvery: 2,
		slices:     1,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// target is a running cluster with its client sessions.
type target struct {
	f        int
	sessions []session
	// states returns the groups of replicas that must agree on their
	// applied state once the load has drained (live replicas only).
	states func() [][]replicaState
	// hosts lists the live replica hosts (sub-hosts on the sharded plane).
	hosts func() []*host.Host
	// switches sums the instance switches of every client.
	switches func() uint64
	// localMsgs reads the in-process network's delivered-message count
	// (nil on TCP).
	localMsgs func() uint64
	// crash stops crashReplica (nil when the workload has no crash).
	crash func()
	stop  func()
	// sharded is set on the sharded plane, whose merge lag the traced run
	// samples.
	sharded bool
}

// buildCounter stands up an in-process cluster of the composition spec over
// transport.Local, running app.Counter, with one composer per session.
func buildCounter(spec string, sessions int, p *probes) (*target, error) {
	comp, err := compose.New(compose.MustParse(spec), compose.Options{})
	if err != nil {
		return nil, err
	}
	c, err := deploy.New(deploy.Config{
		F:           1,
		NewApp:      p.wrapApp(func() app.Application { return app.NewCounter() }),
		Composition: comp,
		Metrics:     p.registry(),
		Tracer:      p.stageTracer(),
	})
	if err != nil {
		return nil, err
	}
	c.Keys.SetMetrics(p.registry())
	ledger := newCounterLedger()
	var crashed atomic.Bool
	t := &target{f: c.Cluster.F, stop: c.Stop}
	clients := make([]*core.Composer, sessions)
	for i := range clients {
		if clients[i], err = c.NewClient(i); err != nil {
			c.Stop()
			return nil, err
		}
		t.sessions = append(t.sessions, &counterSession{client: clients[i], id: ids.Client(i), ledger: ledger, tracer: p.stageTracer()})
	}
	t.hosts = func() []*host.Host {
		if crashed.Load() {
			return append([]*host.Host(nil), c.Hosts[:crashReplica]...)
		}
		return c.Hosts
	}
	t.states = func() [][]replicaState {
		var g []replicaState
		for _, h := range t.hosts() {
			seq, d := h.AppliedState()
			g = append(g, replicaState{seq, d})
		}
		return [][]replicaState{g}
	}
	t.switches = func() uint64 {
		var n uint64
		for _, cl := range clients {
			n += cl.Switches()
		}
		return n
	}
	t.localMsgs = func() uint64 {
		n, _ := c.Net.Stats()
		return n
	}
	t.crash = func() {
		crashed.Store(true)
		c.Hosts[crashReplica].Stop()
	}
	return t, nil
}

// counterSession issues 0-byte commands to app.Counter through one composer.
type counterSession struct {
	client *core.Composer
	id     ids.ProcessID
	ts     uint64
	ledger *counterLedger
	tracer *obs.Tracer
}

func (s *counterSession) next(ctx context.Context) opResult {
	s.ts++
	req := msg.Request{Client: s.id, Timestamp: s.ts, Command: []byte{}}
	before := s.client.Switches()
	s.ledger.issue()
	var reply []byte
	var err error
	if tc := s.tracer.NewTrace(); tc.Sampled() {
		// Stamp the request as a client of the sharded plane does, so the
		// replicas' stage spans join the root span recorded here.
		req.Trace = obs.TraceContext{TraceID: tc.TraceID, Parent: tc.TraceID}
		start := time.Now()
		reply, err = s.client.Invoke(ctx, req)
		s.tracer.Record(tc, obs.StageSend, 0, start, time.Since(start))
	} else {
		reply, err = s.client.Invoke(ctx, req)
	}
	r := opResult{err: err, switched: s.client.Switches() != before}
	if err == nil {
		r.bad = !s.ledger.commit(reply)
	}
	return r
}

// These constants shape kv-tcp: two ordering shards, two client endpoints
// with four sessions each, and a private key set per session so the
// benchmark's model of every key is exact.
const (
	kvShards          = 2
	kvClients         = 2
	kvKeysPerSession  = 16
	kvSessionsPerPeer = 4
)

// buildKVTCP stands up the sharded AZyzzyva plane over authenticated
// loopback TCP with the binary codec, all in this process: four replica
// nodes configured as Topology.NewNodeObs configures them (the application
// constructor and codec are the benchmark's, so traced runs can time them),
// and two client endpoints primed as Topology.DialClient primes them.
func buildKVTCP(p *probes, seed int64) (*target, error) {
	addrs, err := freeAddrs(4 + kvClients)
	if err != nil {
		return nil, err
	}
	topo := deploy.Topology{F: 1, Replicas: addrs[:4], Shards: kvShards, Composition: "azyzzyva", App: "kv"}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	comp, err := topo.Compile()
	if err != nil {
		return nil, err
	}
	codec := p.wrapCodec(wirecodec.Binary())
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	endpoint := func(id ids.ProcessID, addrs map[ids.ProcessID]string) (*transport.TCP, error) {
		ep, err := transport.NewTCPCodec(id, addrs, topo.Keys(), codec)
		if err != nil {
			return nil, err
		}
		if r := p.registry(); r != nil {
			ep.SetMetrics(transport.NewTCPMetrics(r))
		}
		stops = append(stops, ep.Close)
		return ep, nil
	}
	var nodes []*shard.Node
	for i := 0; i < 4; i++ {
		self := ids.Replica(i)
		ep, err := endpoint(self, topo.AddrMap())
		if err != nil {
			stopAll()
			return nil, err
		}
		keys := topo.Keys()
		keys.SetMetrics(p.registry())
		node := shard.NewNode(shard.NodeConfig{
			Shards:   topo.ShardCount(),
			Cluster:  topo.Cluster(),
			Replica:  self,
			Keys:     keys,
			Endpoint: ep,
			NewApp:   p.wrapApp(topo.NewApp()),
			NewProtocol: func(sh int, cl ids.Cluster) host.ProtocolFactory {
				return comp.ReplicaFactory(cl)
			},
			Batch:              host.BatchPolicy{MaxBatch: topo.MaxBatch},
			TimestampWindow:    topo.TimestampWindow,
			Epoch:              topo.ShardEpoch,
			CheckpointInterval: topo.CheckpointInterval,
			Metrics:            p.registry(),
			Tracer:             p.stageTracer(),
			ProtocolName:       comp.ProtocolOf,
		})
		node.Start()
		stops = append(stops, node.Stop)
		nodes = append(nodes, node)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var clients []*shard.Client
	tsOf := make([]*atomic.Uint64, kvClients)
	for c := 0; c < kvClients; c++ {
		id := ids.Client(c)
		am := topo.AddrMap()
		am[id] = addrs[4+c]
		ep, err := endpoint(id, am)
		if err != nil {
			stopAll()
			return nil, err
		}
		if err := ep.Prime(ctx, topo.Cluster().Replicas()); err != nil {
			stopAll()
			return nil, err
		}
		client, err := topo.NewShardClient(id, ep, kvSessionsPerPeer)
		if err != nil {
			stopAll()
			return nil, err
		}
		client.SetTracer(p.stageTracer())
		stops = append(stops, client.Close)
		clients = append(clients, client)
		tsOf[c] = new(atomic.Uint64)
	}
	t := &target{f: topo.F, stop: stopAll, sharded: true}
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < kvClients*kvSessionsPerPeer; s++ {
		c := s % kvClients
		ks := &kvSession{client: clients[c], id: ids.Client(c), ts: tsOf[c], rng: rand.New(rand.NewSource(rng.Int63())), model: newKVModel(), sid: s}
		for k := 0; k < kvKeysPerSession; k++ {
			ks.keys = append(ks.keys, fmt.Sprintf("s%d/k%02d", s, k))
		}
		t.sessions = append(t.sessions, ks)
	}
	t.hosts = func() []*host.Host {
		var hs []*host.Host
		for _, n := range nodes {
			hs = append(hs, n.Hosts...)
		}
		return hs
	}
	t.states = func() [][]replicaState {
		groups := make([][]replicaState, kvShards+1)
		for _, n := range nodes {
			for s, h := range n.Hosts {
				seq, d := h.AppliedState()
				groups[s] = append(groups[s], replicaState{seq, d})
			}
			groups[kvShards] = append(groups[kvShards], replicaState{n.Exec.MergedSeq(), n.Exec.MergedDigest()})
		}
		return groups
	}
	t.switches = func() uint64 {
		var n uint64
		for _, cl := range clients {
			for s := 0; s < cl.Shards(); s++ {
				n += cl.Switches(s)
			}
		}
		return n
	}
	return t, nil
}

// freeAddrs reserves n loopback ports by binding them and releasing them
// right away; the cluster binds them again moments later.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var out []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// kvSession issues an even mix of puts and gets over its own keys through a
// sharded client shared with the other sessions of its endpoint.
type kvSession struct {
	client *shard.Client
	id     ids.ProcessID
	ts     *atomic.Uint64 // shared by every session of the client identity
	rng    *rand.Rand
	keys   []string
	model  *kvModel
	sid    int
	puts   int
}

func (s *kvSession) next(ctx context.Context) opResult {
	key := s.keys[s.rng.Intn(len(s.keys))]
	if s.rng.Intn(2) == 0 {
		s.puts++
		value := fmt.Sprintf("s%d.%d.%08x", s.sid, s.puts, s.rng.Uint32())
		reply, err := s.invoke(ctx, app.EncodeKVPut(key, value))
		return opResult{err: err, bad: !s.model.put(key, value, reply, err)}
	}
	reply, err := s.invoke(ctx, app.EncodeKVGet(key))
	if err != nil {
		return opResult{err: err}
	}
	return opResult{bad: !s.model.get(key, reply)}
}

func (s *kvSession) invoke(ctx context.Context, cmd []byte) ([]byte, error) {
	return s.client.Invoke(ctx, msg.Request{Client: s.id, Timestamp: s.ts.Add(1), Command: cmd})
}
