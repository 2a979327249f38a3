package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// roundTrip encodes m and decodes the resulting frame payload.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf, start := appendFrame(nil, &m)
	// Skip the length prefix the way readLoop does.
	plen, n := decodeUvarintPrefix(buf[start:])
	if n <= 0 || int(plen) != len(buf)-frameHead {
		t.Fatalf("bad length prefix: plen=%d framed=%d", plen, len(buf)-frameHead)
	}
	got, err := decodePayload(buf[start+n:])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func decodeUvarintPrefix(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// sortedByKey returns kvs sorted ascending by key (the codec's canonical
// Data order).
func sortedByKey(kvs []KV) []KV {
	out := append([]KV(nil), kvs...)
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// kvsEqual compares KV slices with bit-exact float semantics (NaN == NaN).
func kvsEqual(a, b []KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
			return false
		}
	}
	return true
}

// TestCodecQuickRoundTrip is the testing/quick property: any Data
// message with unique keys — negative pair-style keys, ±Inf/NaN values —
// survives encode/decode with its (key-sorted) content intact.
func TestCodecQuickRoundTrip(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	f := func(seed int64, sizePick uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sizePick % 300)
		seen := map[int64]bool{}
		kvs := make([]KV, 0, n)
		for len(kvs) < n {
			var k int64
			switch rng.Intn(4) {
			case 0: // pair key with negative halves, as APSP-style src<<32|dst can produce
				k = int64(uint64(rng.Uint32())<<32 | uint64(rng.Uint32()))
			case 1:
				k = -rng.Int63()
			case 2:
				k = int64(rng.Intn(1000)) // dense, small deltas
			default:
				k = rng.Int63()
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			if rng.Intn(8) == 0 {
				v = special[rng.Intn(len(special))]
			}
			kvs = append(kvs, KV{K: k, V: v})
		}
		want := sortedByKey(kvs)
		got := roundTrip(t, Message{Kind: Data, From: rng.Intn(64), Round: rng.Intn(1 << 20), KVs: kvs})
		return got.Kind == Data && kvsEqual(got.KVs, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecEdgeMessages(t *testing.T) {
	cases := []Message{
		{Kind: Data, From: 3, Round: 0, KVs: nil},
		{Kind: Data, From: 0, Round: 7, KVs: []KV{}},
		{Kind: Data, KVs: []KV{{K: math.MinInt64, V: math.Inf(-1)}, {K: math.MaxInt64, V: math.Inf(1)}, {K: 0, V: math.NaN()}}},
		{Kind: FenceMark, From: 1, Round: 42, Fence: FenceStep},
		{Kind: FenceRelease, Round: 9, Fence: FenceMember},
		{Kind: StatsRequest, Round: 1 << 30},
		{Kind: Stop},
		{Kind: StatsReply, From: 2, Round: 5, Stats: Stats{
			Sent: 1 << 40, Recv: 3, AccDelta: -0.5, AccSum: math.Inf(1), Passes: 17, Dirty: true}},
		{Kind: FenceAck, Fence: FenceStep, Stats: Stats{AccDelta: math.NaN(), Dirty: true}},
	}
	for _, m := range cases {
		got := roundTrip(t, m)
		if m.Kind == Data {
			want := sortedByKey(m.KVs)
			if got.Kind != Data || got.From != m.From || got.Round != m.Round || !kvsEqual(got.KVs, want) {
				t.Fatalf("Data round trip: sent %+v got %+v", m, got)
			}
			continue
		}
		// Non-Data: struct equality modulo NaN.
		gb, wb := got, m
		if math.IsNaN(wb.Stats.AccDelta) && math.IsNaN(gb.Stats.AccDelta) {
			gb.Stats.AccDelta, wb.Stats.AccDelta = 0, 0
		}
		if !reflect.DeepEqual(gb, wb) {
			t.Fatalf("round trip: sent %+v got %+v", m, got)
		}
	}
}

// TestCodecEveryKind round-trips, for every Kind, a message with every
// field that kind is documented to carry set to a non-zero value. The
// table is indexed by Kind and sized by the numKinds sentinel, so a kind
// added to the const block without a row here — or without a name in
// kindNames — fails this test instead of silently shipping zero fields
// over TCP (as a retired kind's retire bit once did).
func TestCodecEveryKind(t *testing.T) {
	stats := Stats{Sent: 9, Recv: 8, AccDelta: 0.25, AccSum: -3.5, Passes: 7, Dirty: true}
	table := [numKinds]Message{
		Data:         {From: 1, Round: 12, KVs: []KV{{K: -4, V: 1.5}, {K: 9, V: -2}}},
		StatsRequest: {From: 4, Round: 77},
		StatsReply:   {From: 1, Round: 77, Stats: stats},
		Stop:         {From: 4},
		FenceRequest: {From: 4, Round: 6, Fence: FenceMember,
			Member: &Membership{Down: []int32{1, 2}, Base: 17}},
		FenceMark:    {From: 2, Round: 6, Fence: FenceStep, Stats: stats},
		FenceAck:     {From: 2, Round: 6, Fence: FenceStep, Stats: stats},
		FenceRelease: {From: 4, Round: 6, Fence: FencePark},
	}
	names := map[string]bool{}
	for k := Kind(0); int(k) < numKinds; k++ {
		name := k.String()
		if name == "" || names[name] {
			t.Errorf("Kind(%d) has no name of its own: %q", k, name)
		}
		names[name] = true
		want := table[k]
		want.Kind = k
		got := roundTrip(t, want)
		if len(want.KVs) > 0 {
			if !kvsEqual(got.KVs, want.KVs) {
				t.Errorf("%v: KVs %v, want %v", k, got.KVs, want.KVs)
			}
			got.KVs, want.KVs = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: sent %+v, got %+v", k, want, got)
		}
	}
	if got := Kind(numKinds).String(); got != fmt.Sprintf("Kind(%d)", numKinds) {
		t.Errorf("first value past the const block renders %q", got)
	}
}

// TestCodecFenceAckStats: an ack of every fence class, and a superstep's
// mark, carries a superstep report bit for bit — a NaN AccDelta keeps its
// payload, −0 its sign, Dirty its bit. Another class's mark carries none.
func TestCodecFenceAckStats(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	msgs := []Message{{Kind: FenceMark, Fence: FenceStep}}
	for c := FenceClass(0); int(c) < NumFenceClasses; c++ {
		msgs = append(msgs, Message{Kind: FenceAck, Fence: c})
	}
	for _, m := range msgs {
		for _, st := range []Stats{
			{Sent: 1 << 40, Recv: 5, AccDelta: nan, AccSum: math.Inf(-1), Passes: 3, Dirty: true},
			{AccDelta: math.Copysign(0, -1), AccSum: math.SmallestNonzeroFloat64},
		} {
			m.From, m.Round, m.Stats = 2, 1<<30, st
			got := roundTrip(t, m)
			g := got.Stats
			if got.Fence != m.Fence || got.Round != 1<<30 || g.Sent != st.Sent || g.Recv != st.Recv ||
				g.Passes != st.Passes || g.Dirty != st.Dirty ||
				math.Float64bits(g.AccDelta) != math.Float64bits(st.AccDelta) ||
				math.Float64bits(g.AccSum) != math.Float64bits(st.AccSum) {
				t.Errorf("%v class %d: sent %+v, got %+v", m.Kind, m.Fence, st, got)
			}
		}
	}
	if got := roundTrip(t, Message{Kind: FenceMark, Fence: FencePark, Round: 3, Stats: Stats{Dirty: true}}); got.Stats != (Stats{}) {
		t.Errorf("a park mark carried stats: %+v", got.Stats)
	}
}

// TestCodec64KMessage round-trips a 64k-KV message, 16 full batches in one.
func TestCodec64KMessage(t *testing.T) {
	const n = 64 << 10
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{K: int64(i)*3 - n, V: float64(i) * 0.25}
	}
	want := sortedByKey(kvs)
	got := roundTrip(t, Message{Kind: Data, KVs: kvs})
	if !kvsEqual(got.KVs, want) {
		t.Fatal("64k round trip mismatch")
	}
	// Sorted dense-ish keys should delta-encode well below 8 bytes/key.
	buf, start := appendFrame(nil, &Message{Kind: Data, KVs: append([]KV(nil), want...)})
	wire := len(buf) - start
	if wire >= n*12 {
		t.Errorf("wire size %d bytes for %d KVs — delta encoding not effective", wire, n)
	}
}

func TestCodecRejectsCorruptFrames(t *testing.T) {
	m := Message{Kind: Data, KVs: []KV{{K: 5, V: 1}, {K: 9, V: 2}}}
	buf, start := appendFrame(nil, &m)
	_, n := decodeUvarintPrefix(buf[start:])
	payload := buf[start+n:]
	// Truncating a Data frame after the KV count must fail (the values
	// block comes up short), not read out of bounds.
	if _, err := decodePayload(payload[:len(payload)-3]); err == nil {
		t.Fatal("truncated Data frame accepted")
	}
	// A frame claiming 2^40 KVs in a few bytes must error, not OOM.
	bad := []byte{byte(Data), 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}
	if _, err := decodePayload(bad); err == nil {
		t.Fatal("absurd KV count accepted")
	}
	// Truncated stats frames must error, a fence ack's and a step mark's
	// too.
	if _, err := decodePayload([]byte{byte(StatsReply), 0, 0, 7}); err == nil {
		t.Fatal("truncated stats frame accepted")
	}
	for _, fm := range []Message{
		{Kind: FenceAck, Fence: FenceStep, Stats: Stats{AccSum: 1}},
		{Kind: FenceMark, Fence: FenceStep, Round: 5, Stats: Stats{AccDelta: 1}},
	} {
		buf, start = appendFrame(nil, &fm)
		_, n = decodeUvarintPrefix(buf[start:])
		if _, err := decodePayload(buf[start+n : len(buf)-4]); err == nil {
			t.Fatalf("%v truncated inside its stats accepted", fm.Kind)
		}
	}
	// Receivers index per-class state by the fence class: a class outside
	// the protocol must not decode.
	for _, fm := range []Message{
		{Kind: FenceMark, Fence: FenceClass(NumFenceClasses)},
	} {
		buf, start := appendFrame(nil, &fm)
		_, n := decodeUvarintPrefix(buf[start:])
		if _, err := decodePayload(buf[start+n:]); err == nil {
			t.Fatalf("fence frame outside the protocol accepted: %+v", fm)
		}
	}
}

// TestBatchPoolRecycle exercises the recycle contract under the race
// detector: many senders fill pooled batches and send them over a
// channel network; the receiver folds and recycles. Any use-after-put
// shows up as a data race or a checksum mismatch.
func TestBatchPoolRecycle(t *testing.T) {
	const senders, perSender, batch = 4, 200, 32
	net := NewChannelNetwork(senders+1, 64)
	defer net.Close()
	done := make(chan float64)
	// The master endpoint is the sink; workers 0..senders-1 send to it.
	sink := net.Conn(MasterID(senders + 1))
	go func() {
		total := 0.0
		for got := 0; got < senders*perSender; got++ {
			m := <-sink.Inbox()
			for _, kv := range m.KVs {
				total += kv.V * float64(kv.K)
			}
			PutBatch(m.KVs)
		}
		done <- total
	}()
	perBatch := 0.0
	for k := 0; k < batch; k++ {
		perBatch += float64(k) * float64(k+1)
	}
	want := float64(senders*perSender) * perBatch
	for s := 0; s < senders; s++ {
		go func(s int) {
			conn := net.Conn(s)
			for i := 0; i < perSender; i++ {
				kvs := GetBatch(batch)
				for k := 0; k < batch; k++ {
					kvs = append(kvs, KV{K: int64(k + 1), V: float64(k)})
				}
				if err := conn.Send(MasterID(senders+1), Message{Kind: Data, KVs: kvs}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	total := <-done
	if math.Abs(total-want) > 1e-6 {
		t.Fatalf("folded checksum %v, want %v — batch corrupted in flight", total, want)
	}
}

// TestBatchPoolGrowth checks GetBatch honours the capacity request and
// PutBatch tolerates foreign and empty slices.
func TestBatchPoolGrowth(t *testing.T) {
	b := GetBatch(10_000)
	if cap(b) < 10_000 {
		t.Fatalf("cap %d < requested", cap(b))
	}
	PutBatch(b)
	PutBatch(nil)               // no-op
	PutBatch(make([]KV, 0))     // zero-cap: dropped
	PutBatch(make([]KV, 5, 64)) // foreign slice: donated
	if got := GetBatch(1); cap(got) < 1 {
		t.Fatal("pool returned unusable batch")
	}
}

// --- codec vs gob benchmarks -----------------------------------------

func benchMessage(n int) Message {
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{K: int64(i * 7), V: float64(i) * 1.25}
	}
	return Message{Kind: Data, From: 3, Round: 12, KVs: kvs}
}

// BenchmarkCodec measures one encode+decode round trip of a 1024-KV Data
// message: the binary codec vs the gob framing it replaced. wire-B/msg
// reports the on-wire frame size.
func BenchmarkCodec(b *testing.B) {
	const n = 1024
	b.Run("binary", func(b *testing.B) {
		m := benchMessage(n)
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var start int
			buf, start = appendFrame(buf, &m)
			plen, pn := decodeUvarintPrefix(buf[start:])
			got, err := decodePayload(buf[start+pn : start+pn+int(plen)])
			if err != nil {
				b.Fatal(err)
			}
			PutBatch(got.KVs)
			if i == 0 {
				b.ReportMetric(float64(len(buf)-start), "wire-B/msg")
			}
		}
	})
	b.Run("gob", func(b *testing.B) {
		m := benchMessage(n)
		var buf bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := gob.NewEncoder(&buf).Encode(m); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(buf.Len()), "wire-B/msg")
			}
			var got Message
			if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
				b.Fatal(err)
			}
		}
	})
	// gob with a persistent stream amortises type metadata; the real
	// transport used one encoder per connection, so also measure that.
	b.Run("gob-stream", func(b *testing.B) {
		m := benchMessage(n)
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		dec := gob.NewDecoder(&buf)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(m); err != nil {
				b.Fatal(err)
			}
			var got Message
			if err := dec.Decode(&got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
