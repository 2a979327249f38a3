package fault

import (
	"errors"
	"testing"
	"time"

	"powerlog/internal/transport"
)

func TestParseSpecRoundTrip(t *testing.T) {
	text := "seed=42,stall=5:300µs,dropend=0.2,sendfail=0.1,dup=0.05,delay=0.1:200µs,partition=0-1:50:250,crash=20,mrestart=10"
	s, err := ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || s.StallEvery != 5 || s.StallDur != 300*time.Microsecond ||
		s.DropEndPhase != 0.2 || s.SendFail != 0.1 || s.DupData != 0.05 ||
		s.DelayProb != 0.1 || s.DelayDur != 200*time.Microsecond ||
		s.PartA != 0 || s.PartB != 1 || s.PartFrom != 50 || s.PartTo != 250 ||
		s.CrashRound != 20 || s.MasterRestartRound != 10 {
		t.Fatalf("parsed %+v", s)
	}
	s2, err := ParseSpec(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s {
		t.Fatalf("String round trip: %+v vs %+v", s2, s)
	}
	// crash=E:N is epoch-relative: round N of epoch E, whatever the
	// earlier epochs took.
	s, err = ParseSpec("crash=3:1")
	if err != nil || s.CrashEpoch != 3 || s.CrashRound != 1 || s.String() != "crash=3:1" {
		t.Fatalf("crash=3:1 parsed to %+v (%q), %v", s, s, err)
	}
	inj := New(s)
	if inj.CrashAt(2, 1, 9) || inj.CrashAt(3, 2, 1) || !inj.CrashAt(3, 1, 9) {
		t.Error("crash=3:1 must fire at round 1 of epoch 3 only")
	}
	if inj = New(Spec{CrashRound: 9}); !inj.CrashAt(3, 1, 9) || inj.CrashAt(3, 9, 8) {
		t.Error("crash=9 must fire at the 9th round counted across epochs")
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{"nonsense", "stall=5", "delay=0.1", "partition=0-1:9:9", "zzz=1", "seed=abc", "crash=0:4", "crash=2:0", "crash=2:"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
	s, err := ParseSpec("  ")
	if err != nil || s.Enabled() {
		t.Errorf("blank spec should parse to disabled, got %+v, %v", s, err)
	}
}

func TestNewNilForDisabled(t *testing.T) {
	if New(Spec{Seed: 7}) != nil {
		t.Error("a spec with only a seed injects nothing and should yield a nil injector")
	}
	if New(Spec{SendFail: 0.5}) == nil {
		t.Error("enabled spec should yield an injector")
	}
}

func TestDeterminism(t *testing.T) {
	a := New(Spec{Seed: 1, SendFail: 0.3, DropEndPhase: 0.3})
	b := New(Spec{Seed: 1, SendFail: 0.3, DropEndPhase: 0.3})
	c := New(Spec{Seed: 2, SendFail: 0.3, DropEndPhase: 0.3})
	same, diff := 0, 0
	for idx := 0; idx < 1000; idx++ {
		ra, rb, rc := a.roll(siteFail, 0, 1, idx), b.roll(siteFail, 0, 1, idx), c.roll(siteFail, 0, 1, idx)
		if ra != rb {
			t.Fatalf("same seed diverged at %d: %v vs %v", idx, ra, rb)
		}
		if ra == rc {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical decision streams")
	}
	_ = same
}

func TestRollRate(t *testing.T) {
	i := New(Spec{Seed: 99, SendFail: 0.25})
	hits := 0
	const n = 4000
	for idx := 0; idx < n; idx++ {
		if i.roll(siteFail, 2, 3, idx) < 0.25 {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.2 || rate > 0.3 {
		t.Errorf("rate %v far from configured 0.25", rate)
	}
}

func TestStallFor(t *testing.T) {
	i := New(Spec{Seed: 1, StallEvery: 4, StallDur: time.Millisecond})
	if d := i.StallFor(0, 4); d != time.Millisecond {
		t.Errorf("pass 4 should stall, got %v", d)
	}
	if d := i.StallFor(0, 5); d != 0 {
		t.Errorf("pass 5 should not stall, got %v", d)
	}
	if d := i.StallFor(0, 0); d != 0 {
		t.Errorf("pass 0 should not stall, got %v", d)
	}
}

func TestPartitionWindowHeals(t *testing.T) {
	i := New(Spec{Seed: 1, PartA: 0, PartB: 1, PartFrom: 2, PartTo: 5})
	for idx, want := range []bool{false, false, true, true, true, false, false} {
		if got := i.partitioned(0, 1, idx); got != want {
			t.Errorf("partitioned(0,1,%d) = %v, want %v", idx, got, want)
		}
		if got := i.partitioned(1, 0, idx); got != want {
			t.Errorf("partitioned(1,0,%d) = %v, want %v", idx, got, want)
		}
	}
	if i.partitioned(0, 2, 3) || i.partitioned(2, 1, 3) {
		t.Error("partition leaked onto unrelated links")
	}
}

// recordConn captures deliveries for wrapper tests.
type recordConn struct {
	id, workers int
	sent        []transport.Message
	inbox       chan transport.Message
	failNext    bool
}

func (r *recordConn) ID() int      { return r.id }
func (r *recordConn) Workers() int { return r.workers }
func (r *recordConn) Send(to int, m transport.Message) error {
	if r.failNext {
		r.failNext = false
		return errors.New("inner failure")
	}
	m.From = r.id
	r.sent = append(r.sent, m)
	return nil
}
func (r *recordConn) Inbox() <-chan transport.Message { return r.inbox }
func (r *recordConn) Close() error                    { return nil }

func TestWrapNilInjector(t *testing.T) {
	var i *Injector
	inner := &recordConn{workers: 2}
	if i.Wrap(inner) != transport.Conn(inner) {
		t.Error("nil injector must return the conn unchanged")
	}
}

// superstepMark is an end-of-superstep marker: the marks dropend= loses.
func superstepMark(k int) transport.Message {
	return transport.Message{Kind: transport.FenceMark, Fence: transport.FenceStep, Round: k}
}

func TestWrapDropsEndPhaseDeterministically(t *testing.T) {
	run := func(mark func(k int) transport.Message) (delivered, swallowed int) {
		inner := &recordConn{id: 0, workers: 2}
		conn := New(Spec{Seed: 5, DropEndPhase: 0.5}).Wrap(inner)
		for k := 0; k < 200; k++ {
			if err := conn.Send(1, mark(k)); err != nil {
				t.Fatalf("dropped markers must look sent, got %v", err)
			}
		}
		return len(inner.sent), 200 - len(inner.sent)
	}
	d1, s1 := run(superstepMark)
	d2, s2 := run(superstepMark)
	if d1 != d2 || s1 != s2 {
		t.Fatalf("same seed, different outcomes: %d/%d vs %d/%d", d1, s1, d2, s2)
	}
	if s1 == 0 || d1 == 0 {
		t.Fatalf("0.5 drop rate should both drop and deliver (delivered %d, swallowed %d)", d1, s1)
	}
	// Another class's marks belong to the recovery machinery: none is lost.
	parkMark := func(k int) transport.Message {
		return transport.Message{Kind: transport.FenceMark, Fence: transport.FencePark, Round: k}
	}
	if _, swallowed := run(parkMark); swallowed != 0 {
		t.Fatalf("dropend= lost %d park marks", swallowed)
	}
}

func TestWrapFailsSendWithoutConsuming(t *testing.T) {
	inner := &recordConn{id: 0, workers: 2}
	conn := New(Spec{Seed: 3, PartA: 0, PartB: 1, PartFrom: 0, PartTo: 3}).Wrap(inner)
	kvs := transport.GetBatch(1)
	kvs = append(kvs, transport.KV{K: 1, V: 2})
	var err error
	attempts := 0
	for attempts < 10 {
		err = conn.Send(1, transport.Message{Kind: transport.Data, KVs: kvs})
		attempts++
		if err == nil {
			break
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("unexpected error %v", err)
		}
	}
	if err != nil || attempts != 4 {
		t.Fatalf("partition [0,3) should heal on attempt 4, got err=%v attempts=%d", err, attempts)
	}
	if len(inner.sent) != 1 || len(inner.sent[0].KVs) != 1 || inner.sent[0].KVs[0].K != 1 {
		t.Fatalf("healed delivery wrong: %+v", inner.sent)
	}
}

func TestWrapSparesControlPlane(t *testing.T) {
	inner := &recordConn{id: 0, workers: 2}
	conn := New(Spec{Seed: 3, SendFail: 1.0, DropEndPhase: 1.0}).Wrap(inner)
	// Master-bound and control messages must never be faulted.
	master := transport.MasterID(2)
	if err := conn.Send(master, transport.Message{Kind: transport.StatsReply}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(1, transport.Message{Kind: transport.FenceMark}); err != nil {
		t.Fatal(err)
	}
	if len(inner.sent) != 2 {
		t.Fatalf("control plane was faulted: %+v", inner.sent)
	}
}

func TestWrapDuplicatesData(t *testing.T) {
	inner := &recordConn{id: 0, workers: 2}
	conn := New(Spec{Seed: 11, DupData: 1.0}).Wrap(inner)
	kvs := transport.GetBatch(2)
	kvs = append(kvs, transport.KV{K: 7, V: 1}, transport.KV{K: 8, V: 2})
	if err := conn.Send(1, transport.Message{Kind: transport.Data, KVs: kvs}); err != nil {
		t.Fatal(err)
	}
	if len(inner.sent) != 2 {
		t.Fatalf("expected duplicate delivery, got %d messages", len(inner.sent))
	}
	for _, m := range inner.sent {
		if len(m.KVs) != 2 || m.KVs[0].K != 7 || m.KVs[1].K != 8 {
			t.Fatalf("duplicate differs from original: %+v", m)
		}
	}
	if &inner.sent[0].KVs[0] == &inner.sent[1].KVs[0] {
		t.Fatal("duplicate shares the original's backing array (double recycle hazard)")
	}
}

// tryConn adds TrySend to recordConn with scriptable back-pressure.
type tryConn struct {
	recordConn
	pressured int // next n TrySends report back-pressure
}

func (r *tryConn) TrySend(to int, m transport.Message) (bool, error) {
	if r.pressured > 0 {
		r.pressured--
		return false, nil
	}
	m.From = r.id
	r.sent = append(r.sent, m)
	return true, nil
}

func TestWrapPreservesTrySender(t *testing.T) {
	inner := &tryConn{recordConn: recordConn{id: 0, workers: 2}}
	conn := New(Spec{Seed: 4, SendFail: 0.4}).Wrap(inner)
	try, ok := conn.(transport.TrySender)
	if !ok {
		t.Fatal("wrapper lost the TrySender capability")
	}
	delivered := 0
	for k := 0; k < 100; k++ {
		for {
			sent, err := try.TrySend(1, superstepMark(k))
			if err != nil {
				t.Fatal(err)
			}
			if sent {
				delivered++
				break
			}
		}
	}
	// Every marker eventually delivers: injected TrySend failures look
	// like back-pressure and the retry advances past them.
	if delivered != 100 || len(inner.sent) != 100 {
		t.Fatalf("delivered %d, inner saw %d", delivered, len(inner.sent))
	}
	base := &recordConn{id: 0, workers: 2}
	if _, ok := New(Spec{SendFail: 0.1}).Wrap(base).(transport.TrySender); ok {
		t.Error("wrapper invented TrySender for a conn without it")
	}
}
