package compiler

import (
	"cmp"
	"slices"

	"powerlog/internal/agg"
)

// fold folds values by key into a column of slots — the shape of a
// monotable mirror. A vertex-keyed fold is a column over the vertices,
// each key its own slot, with the slots it folded listed. Any other key —
// a pair, a view's several group keys, a value that names no vertex —
// takes the next slot for each value, and the values of one exact key
// (−0 and +0 one key) fold, in the order they came, when the fold is
// read. The plan keeps its folds from call to call and clearing one walks
// the slots it folded, so a batch pays for what it folds, not for N; the
// column reaches only as far as the highest vertex folded.
type fold struct {
	op     *agg.Op
	n      int  // the vertices [0,n)
	vertex bool // keyed by vertex: at is the set of slots folded
	w      int  // other keys: the width of a key; at.list has a slot per value

	val  []float64  // by slot
	at   vset       // over the vertices folded
	keys []float64  // other keys: slot s's key is keys[s*w:][:w]
	pair [2]float64 // addKey's key, keyOf's vertex key
}

// reset empties the fold and keys it by vertex or not under op. A key's
// value is its first value folded with the ones after it.
func (f *fold) reset(op *agg.Op, vertex bool) {
	if f.vertex {
		f.at.clear()
	}
	f.op, f.vertex = op, vertex
	f.at.list, f.keys = f.at.list[:0], f.keys[:0]
}

// add folds v at key. A vertex-keyed fold refuses (errNoVertex, folding
// nothing) a key that names no vertex.
func (f *fold) add(key []float64, v float64) error {
	if !f.vertex {
		s := len(f.at.list)
		f.w = len(key)
		for _, k := range key {
			f.keys = append(f.keys, k+0) // −0 + 0 is +0
		}
		f.val = grow(f.val, s)
		f.val[s] = v
		f.at.list = append(f.at.list, int32(s))
		return nil
	}
	s, err := f.slot(key[0])
	if err != nil {
		return err
	}
	if f.at.on[s] {
		v = f.op.Fold(f.val[s], v)
	} else {
		f.at.add(s)
	}
	f.val[s] = v
	return nil
}

// slot is a vertex-keyed fold's slot for key, the column grown to hold
// it, or errNoVertex when key names no vertex.
func (f *fold) slot(key float64) (int32, error) {
	s, ok := vertexID(key, f.n)
	if !ok {
		return 0, errNoVertex
	}
	if int(s) >= len(f.at.on) {
		f.val, f.at.on = grow(f.val, int(s)), grow(f.at.on, int(s))
	}
	return s, nil
}

// errNoVertex is a vertex-keyed fold's refusal of a key that names no vertex.
var errNoVertex = errf("a key names no vertex")

// addKey folds v at a table key: a pair hi<<32|lo, or a vertex, which
// is its own lo.
func (f *fold) addKey(key int64, v float64) {
	hi, lo := DecodePair(key)
	f.pair = [2]float64{float64(hi), float64(lo)}
	k := f.pair[:]
	if f.vertex {
		k = k[1:]
	}
	f.add(k, v)
}

// keyOf is slot s's key; a vertex's is in f.pair until the next call.
func (f *fold) keyOf(s int32) []float64 {
	if f.vertex {
		f.pair[0] = float64(s)
		return f.pair[:1]
	}
	return f.keys[int(s)*f.w:][:f.w]
}

// each calls g with every key folded, in ascending key order: its first
// slot and its value.
func (f *fold) each(g func(s int32, v float64)) {
	slots := f.at.list
	if f.vertex {
		slices.Sort(slots)
	} else { // one key's slots sort together, in the order they were folded
		slices.SortFunc(slots, func(a, b int32) int {
			return cmp.Or(slices.Compare(f.keyOf(a), f.keyOf(b)), cmp.Compare(a, b))
		})
	}
	for i := 0; i < len(slots); {
		s, v := slots[i], f.val[slots[i]]
		for i++; i < len(slots) && !f.vertex && slices.Compare(f.keyOf(slots[i]), f.keyOf(s)) == 0; i++ {
			v = f.op.Fold(v, f.val[slots[i]])
		}
		g(s, v)
	}
}

// kvs lists the folded table keys in ascending order with their values.
func (f *fold) kvs() []KV {
	out := make([]KV, 0, len(f.at.list))
	f.each(func(s int32, v float64) {
		k := f.keyOf(s)
		key := int64(k[0])
		if !f.vertex {
			key = EncodePair(key, int64(k[1]))
		}
		out = append(out, KV{key, v})
	})
	return out
}

// grow extends xs with zero values to hold index i.
func grow[T any](xs []T, i int) []T { return append(xs, make([]T, max(0, i+1-len(xs)))...) }

// vertexID is k as a vertex of [0,n), if it names one.
func vertexID(k float64, n int) (int32, bool) {
	v := int32(k) // whatever a k outside int32 converts to, the test below fails
	return v, k >= 0 && k < float64(n) && float64(v) == k
}
