package metrics

import (
	"strings"
	"testing"
)

// TestPromHistogramFixture pins the log2-bucket -> Prometheus cumulative
// bucket conversion against a hand-computed fixture. Observations
// {0, 1, 2, 3, 8} land in log2 buckets b0=1 (v==0), b1=1 (v==1),
// b2=2 (v in [2,3]), b4=1 (v in [8,15]); the INCLUSIVE upper bounds of
// those buckets are 0, 1, 3, 7, 15 — NOT 1, 2, 4, 8, 16 — so the
// cumulative le series must read le="0"=1, le="1"=2, le="3"=4,
// le="7"=4, le="15"=5, le="+Inf"=5 with sum 14 and count 5. An
// off-by-one-bucket exporter shifts every le label a power of two and
// fails here.
func TestPromHistogramFixture(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("serve.query.latency_us")
	for _, v := range []uint64{0, 1, 2, 3, 8} {
		h.Observe(v)
	}

	var b strings.Builder
	WritePrometheus(&b, "powerlog", r.Snapshot())
	got := b.String()

	want := `# TYPE powerlog_serve_query_latency_us histogram
powerlog_serve_query_latency_us_bucket{le="0"} 1
powerlog_serve_query_latency_us_bucket{le="1"} 2
powerlog_serve_query_latency_us_bucket{le="3"} 4
powerlog_serve_query_latency_us_bucket{le="7"} 4
powerlog_serve_query_latency_us_bucket{le="15"} 5
powerlog_serve_query_latency_us_bucket{le="+Inf"} 5
powerlog_serve_query_latency_us_sum 14
powerlog_serve_query_latency_us_count 5
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := CheckExposition([]byte(got)); err != nil {
		t.Fatalf("fixture output fails conformance: %v", err)
	}
}

// TestPromCountersAndGauges checks name sanitization (dotted and %d
// family names), the counter _total suffix, and deterministic ordering.
func TestPromCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter("master.member.join").Add(3)
	r.Counter("tcp.peer3.bytes").Add(4096)
	r.Gauge("serve.session.pooled").Set(2)

	var b strings.Builder
	WritePrometheus(&b, "powerlog", r.Snapshot())
	got := b.String()

	want := `# TYPE powerlog_master_member_join_total counter
powerlog_master_member_join_total 3
# TYPE powerlog_tcp_peer3_bytes_total counter
powerlog_tcp_peer3_bytes_total 4096
# TYPE powerlog_serve_session_pooled gauge
powerlog_serve_session_pooled 2
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := CheckExposition([]byte(got)); err != nil {
		t.Fatalf("output fails conformance: %v", err)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"master.member.join", "master_member_join"},
		{"serve.query.latency_us", "serve_query_latency_us"},
		{"tcp.peer12.bytes", "tcp_peer12_bytes"},
		{"already_legal:name", "already_legal:name"},
		{"9lives", "_9lives"},
		{"weird-name/x", "weird_name_x"},
	}
	for _, c := range cases {
		if got := sanitizeMetricName(c.in); got != c.want {
			t.Errorf("sanitize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestCheckExpositionViolations feeds the validator hand-crafted
// non-conforming documents and requires each to be rejected for the
// right reason.
func TestCheckExpositionViolations(t *testing.T) {
	cases := []struct {
		name, doc, errFrag string
	}{
		{
			"sample without TYPE",
			"powerlog_x_total 1\n",
			"no preceding # TYPE",
		},
		{
			"duplicate TYPE",
			"# TYPE a_total counter\na_total 1\n# TYPE a_total counter\n",
			"duplicate TYPE",
		},
		{
			"counter missing _total",
			"# TYPE a counter\na 1\n",
			"_total suffix",
		},
		{
			"negative counter",
			"# TYPE a_total counter\na_total -1\n",
			"negative counter",
		},
		{
			"illegal metric name",
			"# TYPE 9bad counter\n",
			"illegal metric name",
		},
		{
			"bucket without le",
			"# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
			"without le",
		},
		{
			"non-monotone cumulative buckets",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 4\nh_count 3\n",
			"decreased",
		},
		{
			"le not increasing",
			"# TYPE h histogram\nh_bucket{le=\"3\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
			"not increasing",
		},
		{
			"missing +Inf bucket",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
			"no +Inf",
		},
		{
			"+Inf disagrees with count",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
			"!= count",
		},
		{
			"missing sum",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
			"missing _sum",
		},
		{
			"TYPE with no samples",
			"# TYPE lonely gauge\n",
			"no samples follow",
		},
		{
			"unterminated label set",
			"# TYPE h histogram\nh_bucket{le=\"1\" 1\n",
			"unterminated",
		},
		{
			"garbage value",
			"# TYPE g gauge\ng banana\n",
			"bad value",
		},
	}
	for _, c := range cases {
		err := CheckExposition([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: validator accepted non-conforming document", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errFrag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errFrag)
		}
	}
}

// TestCheckExpositionRoundTrip ensures the validator and the
// exporter agree on a mixed snapshot with all three instrument kinds.
func TestCheckExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.req").Add(10)
	r.Counter("serve.shed.rate").Add(1)
	r.Gauge("serve.session.pooled").Set(3)
	h := r.Histogram("serve.lookup.latency_us")
	for v := uint64(1); v < 1000; v *= 3 {
		h.Observe(v)
	}

	var b strings.Builder
	WritePrometheus(&b, "powerlog", r.Snapshot())
	if err := CheckExposition([]byte(b.String())); err != nil {
		t.Fatalf("round trip fails conformance: %v\n%s", err, b.String())
	}
}
