package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"abstractbft/internal/authn"
)

// counterLedger checks the replies of one cluster running app.Counter
// against a property rather than a recorded output: the n-th execution
// returns n, so under total order and at-most-once execution every committed
// reply is a distinct value no larger than the number of requests issued so
// far.
type counterLedger struct {
	issued atomic.Uint64

	mu   sync.Mutex
	seen map[uint64]struct{}
}

func newCounterLedger() *counterLedger {
	return &counterLedger{seen: make(map[uint64]struct{})}
}

// issue records that one more request is about to be invoked.
func (l *counterLedger) issue() { l.issued.Add(1) }

// commit checks one committed reply and reports whether it passes: an
// 8-byte value in [1, issued] that no earlier reply carried.
func (l *counterLedger) commit(reply []byte) bool {
	if len(reply) != 8 {
		return false
	}
	v := binary.BigEndian.Uint64(reply)
	if v == 0 || v > l.issued.Load() {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.seen[v]; dup {
		return false
	}
	l.seen[v] = struct{}{}
	return true
}

// kvModel is one session's model of the keys only it writes: the last
// acknowledged put per key. A get must return exactly that value (empty for
// a key never written).
type kvModel struct {
	last map[string]string
	// unknown marks keys whose last put failed: it may or may not have
	// been applied, so gets of the key go unchecked until the next
	// acknowledged put.
	unknown map[string]bool
}

func newKVModel() *kvModel {
	return &kvModel{last: make(map[string]string), unknown: make(map[string]bool)}
}

// put checks a put's reply and, when acknowledged, records the value.
func (m *kvModel) put(key, value string, reply []byte, err error) bool {
	if err != nil {
		m.unknown[key] = true
		return true
	}
	if string(reply) != "OK" {
		m.unknown[key] = true
		return false
	}
	m.last[key] = value
	delete(m.unknown, key)
	return true
}

// get checks a get's reply against the model.
func (m *kvModel) get(key string, reply []byte) bool {
	if m.unknown[key] {
		return true
	}
	return string(reply) == m.last[key]
}

// replicaState is the applied state one replica (or one merged execution
// stage) reports.
type replicaState struct {
	seq    uint64
	digest authn.Digest
}

// agreeExecuting checks one group of replicas that should hold the same
// state: every member that has executed anything reports the same applied
// sequence and digest, and at least min members have executed.
func agreeExecuting(group []replicaState, min int) error {
	var ref *replicaState
	executing := 0
	for i := range group {
		st := &group[i]
		if st.seq == 0 {
			continue
		}
		executing++
		if ref == nil {
			ref = st
			continue
		}
		if *st != *ref {
			return fmt.Errorf("applied state differs: seq %d digest %v vs seq %d digest %v", ref.seq, ref.digest, st.seq, st.digest)
		}
	}
	if executing < min {
		return fmt.Errorf("%d replicas executed, want at least %d", executing, min)
	}
	return nil
}

// awaitAgreement polls read until every group agrees or the deadline
// passes; replicas may still be applying the window's last operations when
// the load drains.
func awaitAgreement(ctx context.Context, read func() [][]replicaState, min int) error {
	var err error
	for {
		err = nil
		for _, g := range read() {
			if err = agreeExecuting(g, min); err != nil {
				break
			}
		}
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(10 * time.Millisecond):
		}
	}
}
