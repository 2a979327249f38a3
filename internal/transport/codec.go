package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Binary wire codec for the TCP transport. gob spent most of each Data
// message on per-message type metadata and reflection; this codec writes
// a length-prefixed frame whose payload is:
//
//	kind    1 byte
//	from    uvarint
//	round   zigzag varint
//	Data payload:
//	    n       uvarint
//	    keys    first key zigzag varint, then uvarint deltas
//	            (keys are sorted ascending before encoding, so every
//	            delta is non-negative; sender-side combining makes keys
//	            unique, but the codec tolerates duplicates as delta 0)
//	    values  n × 8-byte little-endian raw IEEE-754 bits, in key order
//	            (NaN and ±Inf round-trip bit-exactly)
//	Stats payload (StatsReply; FenceAck and a step-class FenceMark after
//	their fence payload):
//	    sent, recv     uvarint
//	    accDelta, accSum  8-byte little-endian float64 bits
//	    passes         uvarint
//	    dirty          1 byte
//	Fence payload (FenceRequest, FenceMark, FenceAck, FenceRelease):
//	    class          1 byte
//	    member         1 byte, 1 when a membership request's lost slots follow:
//	    down           uvarint count, then one zigzag varint each
//
// Other kinds carry no payload beyond the header. The frame prefix is a
// uvarint payload length, so the reader can slice one whole message off
// the stream before decoding.

// frameHead is the room reserved for the length prefix while encoding;
// a 5-byte uvarint covers payloads up to 128 GiB.
const frameHead = 5

// maxFrame bounds a decoded payload so a corrupt length prefix cannot
// OOM the reader. A full Data batch (4096 KVs) is ~64 KiB; 64 MiB
// leaves two orders of magnitude of headroom.
const maxFrame = 64 << 20

// appendFrame encodes m as one length-prefixed frame into buf's spare
// capacity and returns the extended buffer. The frame starts at offset
// frameStart of the result (the length prefix is right-justified in the
// reserved head, so the first frameStart bytes are dead). Data KVs are
// sorted by key in place — the encoder owns the batch per the recycle
// contract.
func appendFrame(buf []byte, m *Message) ([]byte, int) {
	buf = append(buf[:0], make([]byte, frameHead)...)
	buf = appendPayload(buf, m)
	plen := uint64(len(buf) - frameHead)
	n := uvarintLen(plen)
	start := frameHead - n
	binary.PutUvarint(buf[start:], plen)
	return buf, start
}

func appendPayload(buf []byte, m *Message) []byte {
	buf = append(buf, byte(m.Kind))
	buf = binary.AppendUvarint(buf, uint64(m.From))
	buf = binary.AppendVarint(buf, int64(m.Round))
	switch m.Kind {
	case Data:
		slices.SortFunc(m.KVs, func(a, b KV) int {
			switch {
			case a.K < b.K:
				return -1
			case a.K > b.K:
				return 1
			}
			return 0
		})
		buf = binary.AppendUvarint(buf, uint64(len(m.KVs)))
		prev := int64(0)
		for i, kv := range m.KVs {
			if i == 0 {
				buf = binary.AppendVarint(buf, kv.K)
			} else {
				buf = binary.AppendUvarint(buf, uint64(kv.K-prev))
			}
			prev = kv.K
		}
		for _, kv := range m.KVs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(kv.V))
		}
	case FenceRequest, FenceMark, FenceAck, FenceRelease:
		buf = append(buf, byte(m.Fence))
		if mb := m.Member; mb == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(len(mb.Down)))
			for _, j := range mb.Down {
				buf = binary.AppendVarint(buf, int64(j))
			}
		}
	default:
		// StatsRequest and Stop carry nothing beyond the kind/from/round
		// header, a StatsReply only the Stats payload below.
	}
	if m.carriesStats() {
		buf = binary.AppendUvarint(buf, uint64(m.Stats.Sent))
		buf = binary.AppendUvarint(buf, uint64(m.Stats.Recv))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Stats.AccDelta))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Stats.AccSum))
		buf = binary.AppendUvarint(buf, uint64(m.Stats.Passes))
		var dirty byte
		if m.Stats.Dirty {
			dirty = 1
		}
		buf = append(buf, dirty)
	}
	return buf
}

// decodePayload decodes one frame payload. Data KVs land in a pooled
// batch (the receiver recycles it with PutBatch after folding).
func decodePayload(data []byte) (Message, error) {
	d := decoder{data: data}
	var m Message
	m.Kind = Kind(d.byte())
	m.From = int(d.uvarint())
	m.Round = int(d.varint())
	switch m.Kind {
	case Data:
		n := d.uvarint()
		// A KV costs at least 9 bytes (≥1 varint key byte + 8 value
		// bytes), so a count the remaining payload cannot hold is a
		// corrupt frame — reject before allocating a batch for it.
		if n > uint64(len(d.data))/9 {
			return m, fmt.Errorf("transport: corrupt frame: %d KVs in %d bytes", n, len(d.data))
		}
		kvs := GetBatch(int(n))
		key := int64(0)
		for i := uint64(0); i < n; i++ {
			if i == 0 {
				key = d.varint()
			} else {
				key += int64(d.uvarint())
			}
			kvs = append(kvs, KV{K: key})
		}
		for i := range kvs {
			kvs[i].V = math.Float64frombits(d.uint64())
		}
		m.KVs = kvs
	case FenceRequest, FenceMark, FenceAck, FenceRelease:
		m.Fence = FenceClass(d.byte())
		if d.byte() == 1 {
			mb := &Membership{}
			// Every slot costs a byte: a corrupt count ends at the overrun.
			for n := d.uvarint(); n > 0 && !d.bad; n-- {
				mb.Down = append(mb.Down, int32(d.varint()))
			}
			m.Member = mb
		}
		// Receivers index per-class state by Fence, so a class outside
		// the protocol is a corrupt frame.
		if int(m.Fence) >= NumFenceClasses {
			d.bad = true
		}
	default:
		// StatsRequest and Stop have an empty payload, a StatsReply only
		// its Stats.
	}
	if m.carriesStats() {
		m.Stats.Sent = int64(d.uvarint())
		m.Stats.Recv = int64(d.uvarint())
		m.Stats.AccDelta = math.Float64frombits(d.uint64())
		m.Stats.AccSum = math.Float64frombits(d.uint64())
		m.Stats.Passes = int64(d.uvarint())
		m.Stats.Dirty = d.byte() != 0
	}
	if d.bad {
		if m.Kind == Data {
			PutBatch(m.KVs)
			m.KVs = nil
		}
		return m, fmt.Errorf("transport: corrupt %v frame (%d bytes)", m.Kind, len(data))
	}
	return m, nil
}

// decoder is a cursor over one frame payload; any overrun or malformed
// varint sets bad instead of panicking, so one corrupt frame yields one
// error, not a torn-down process.
type decoder struct {
	data []byte
	bad  bool
}

func (d *decoder) byte() byte {
	if len(d.data) < 1 {
		d.bad = true
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *decoder) uint64() uint64 {
	if len(d.data) < 8 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data)
	d.data = d.data[8:]
	return v
}

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
