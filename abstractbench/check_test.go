package main

import (
	"context"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"abstractbft/internal/authn"
)

func counterReply(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func TestCounterLedger(t *testing.T) {
	l := newCounterLedger()
	for i := 0; i < 3; i++ {
		l.issue()
	}
	for _, c := range []struct {
		reply []byte
		ok    bool
	}{
		{counterReply(2), true},
		{counterReply(1), true},
		{counterReply(2), false}, // duplicate: executed twice or out of order
		{counterReply(4), false}, // more executions than requests issued
		{counterReply(0), false},
		{[]byte{1}, false},
		{counterReply(3), true},
	} {
		if got := l.commit(c.reply); got != c.ok {
			t.Errorf("commit(%x) = %v, want %v", c.reply, got, c.ok)
		}
	}
}

func TestKVModel(t *testing.T) {
	m := newKVModel()
	if !m.get("k", nil) {
		t.Error("a never-written key must read empty")
	}
	if m.get("k", []byte("x")) {
		t.Error("a never-written key read a value")
	}
	if !m.put("k", "a", []byte("OK"), nil) || !m.put("k", "b", []byte("OK"), nil) {
		t.Fatal("acknowledged puts must pass")
	}
	if m.get("k", []byte("a")) {
		t.Error("a stale get (the value before the last acknowledged put) passed")
	}
	if !m.get("k", []byte("b")) {
		t.Error("the last acknowledged put was not read back")
	}
	if m.put("k", "c", []byte("ERR"), nil) {
		t.Error("a put answered with something other than OK passed")
	}
}

func TestAgreeExecuting(t *testing.T) {
	d1, d2 := authn.Hash([]byte("a")), authn.Hash([]byte("b"))
	if err := agreeExecuting([]replicaState{{5, d1}, {0, authn.Digest{}}, {5, d1}}, 2); err != nil {
		t.Errorf("replicas that never executed must be left out: %v", err)
	}
	if err := agreeExecuting([]replicaState{{5, d1}, {5, d2}}, 2); err == nil {
		t.Error("different digests at the same sequence agreed")
	}
	if err := agreeExecuting([]replicaState{{5, d1}, {4, d1}}, 2); err == nil {
		t.Error("different sequences agreed")
	}
	if err := agreeExecuting([]replicaState{{5, d1}, {0, authn.Digest{}}}, 2); err == nil {
		t.Error("one executing replica passed a minimum of two")
	}
}

// replySession answers counter values 1, 2, 3, ... through a shared
// ledger, as a counter session does; call dupAt (if positive) repeats the
// previous call's value instead.
type replySession struct {
	ledger *counterLedger
	dupAt  int
	i      int
}

func (s *replySession) next(ctx context.Context) opResult {
	s.ledger.issue()
	v := uint64(s.i + 1)
	if s.i == s.dupAt && s.i > 0 {
		v--
	}
	s.i++
	return opResult{bad: !s.ledger.commit(counterReply(v))}
}

// kvScriptSession replays puts and gets with fixed replies through a model,
// as a KV session does.
type kvScriptSession struct {
	model *kvModel
	i     int
	stale bool
}

func (s *kvScriptSession) next(ctx context.Context) opResult {
	s.i++
	value := []byte{byte('a' + s.i%26)}
	if s.i%2 == 1 {
		return opResult{bad: !s.model.put("k", string(value), []byte("OK"), nil)}
	}
	// Even calls read the key back; a stale replica answers the put before.
	prev := []byte{byte('a' + (s.i-1)%26)}
	if s.stale && s.i == 4 {
		prev = []byte{byte('a' + (s.i-3)%26)}
	}
	return opResult{bad: !s.model.get("k", prev)}
}

// TestBadRepliesCountAsFailed runs the harness over sessions that return
// one duplicated counter value or one stale get, and expects exactly that
// operation counted as failed and the run marked incorrect.
func TestBadRepliesCountAsFailed(t *testing.T) {
	window := 100 * time.Millisecond
	for _, c := range []struct {
		name    string
		session func() session
		bad     int
	}{
		{"counter ok", func() session { return &replySession{ledger: newCounterLedger()} }, 0},
		{"counter duplicate", func() session { return &replySession{ledger: newCounterLedger(), dupAt: 2} }, 1},
		{"kv ok", func() session { return &kvScriptSession{model: newKVModel()} }, 0},
		{"kv stale get", func() session { return &kvScriptSession{model: newKVModel(), stale: true} }, 1},
	} {
		w := fakeWorkload(loadSpec{sessions: 1, rate: 100}, c.session)
		rep, err := measure(w, 1, window, false, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.Failed != c.bad || rep.Correct != (c.bad == 0) {
			t.Errorf("%s: failed=%d correct=%v, want failed=%d correct=%v", c.name, rep.Failed, rep.Correct, c.bad, c.bad == 0)
		}
	}
}
