package runtime

import (
	"testing"

	"powerlog/internal/agg"
	"powerlog/internal/monotable"
	"powerlog/internal/transport"
)

// BenchmarkOutBuf measures the sender-side mirror's steady-state
// fill→drain cycle, ns per add, at the two shapes the plperf workloads
// give it: fold10 is a PageRank superstep's buffer (2100 keys of a
// 4096-slot shard, ten adds each, one flush), eager64 the eager policies'
// (64 keys, one add each, one flush). Keys arrive by key here; the compute
// pass reaches the mirror by slot (BenchmarkScanPass).
func BenchmarkOutBuf(b *testing.B) {
	const n, stride, offset = 1 << 13, 2, 1
	route := monotable.NewRoute(n, stride)
	op := agg.ByKind(agg.Sum)
	for _, shape := range []struct {
		name       string
		keys, adds int
	}{{"fold10", 2100, 10}, {"eager64", asyncEagerBatch, 1}} {
		b.Run(shape.name, func(b *testing.B) {
			buf := newMirrorBuf(op, route, offset)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for a := 0; a < shape.adds; a++ {
					for k := 0; k < shape.keys; k++ {
						buf.add(route.Key(offset, k*7%route.Size(offset)), float64(k))
					}
				}
				kvs := buf.take()
				if len(kvs) != shape.keys {
					b.Fatalf("drained %d keys, want %d", len(kvs), shape.keys)
				}
				transport.PutBatch(kvs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.keys*shape.adds), "ns/add")
		})
	}
}
