package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"powerlog"
	"powerlog/internal/metrics"
)

// newTestServer spins up the front end over httptest with serving-grade
// admission defaults loose enough for tests unless overridden.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.DefaultBudget == 0 {
		cfg.DefaultBudget = 30 * time.Second
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// readNDJSON decodes a query response: header line then value lines.
func readNDJSON(t *testing.T, r io.Reader) (queryHeader, map[int64]float64) {
	t.Helper()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("empty NDJSON response")
	}
	var hdr queryHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("decode header %q: %v", sc.Text(), err)
	}
	if hdr.Kind != "header" {
		t.Fatalf("first line is %q, want header", hdr.Kind)
	}
	vals := map[int64]float64{}
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var v valueLine
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("decode value line %q: %v", sc.Text(), err)
		}
		vals[v.K] = v.V
	}
	return hdr, vals
}

// TestQueryLookupMetrics drives the primary flow end to end: fresh
// fixpoint streamed as NDJSON, cached re-read, wait-free point lookup,
// and a /metrics scrape over the real post-fixpoint snapshot that must
// pass the exposition conformance check.
func TestQueryLookupMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := queryRequest{Tenant: "t1", Dataset: "tiny-chain", Algo: "SSSP", Mode: "unified"}

	resp := postJSON(t, ts.URL+"/v1/query", q)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	hdr, vals := readNDJSON(t, resp.Body)
	resp.Body.Close()
	if !hdr.Converged {
		t.Fatalf("fresh fixpoint did not converge: %+v", hdr)
	}
	if hdr.Cached {
		t.Fatalf("first query reported cached")
	}
	if len(vals) == 0 || len(vals) != hdr.Values {
		t.Fatalf("streamed %d values, header says %d", len(vals), hdr.Values)
	}

	// Second identical query must hit the parked fixpoint.
	resp = postJSON(t, ts.URL+"/v1/query", q)
	hdr2, vals2 := readNDJSON(t, resp.Body)
	resp.Body.Close()
	if !hdr2.Cached {
		t.Fatalf("second query did not hit the cache")
	}
	if len(vals2) != len(vals) {
		t.Fatalf("cached stream has %d values, fresh had %d", len(vals2), len(vals))
	}

	// Point lookup on a streamed key must agree with the stream.
	var key int64 = -1
	var want float64
	for k, v := range vals {
		key, want = k, v
		break
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/result?dataset=tiny-chain&algo=SSSP&mode=unified&key=%d", ts.URL, key))
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	var lk struct {
		K int64   `json:"k"`
		V float64 `json:"v"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&lk); err != nil {
		t.Fatalf("decode lookup: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lk.K != key || lk.V != want {
		t.Fatalf("lookup (%d) = %+v status %d, want v=%g", key, lk, resp.StatusCode, want)
	}

	// Unknown dataset/algo/mode combination is a 404.
	resp, err = http.Get(ts.URL + "/v1/result?dataset=tiny-chain&algo=CC&mode=unified&key=0")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("lookup without fixpoint: status %d, want 404", resp.StatusCode)
	}

	// The exposition conformance satellite: scrape /metrics after a real
	// fixpoint and validate the grammar plus the serve.* series.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := metrics.CheckExposition(body); err != nil {
		t.Fatalf("/metrics fails conformance: %v\n%s", err, body)
	}
	for _, want := range []string{
		"powerlog_serve_query_latency_us_bucket{le=\"+Inf\"}",
		"powerlog_serve_query_fresh_total 1",
		"powerlog_serve_query_cached_total 1",
		"powerlog_serve_lookup_total 1",
		"powerlog_serve_session_pooled 1",
		"powerlog_master_round_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMutate checks the incremental path: a parked SSSP session absorbs
// an edge insert via Session.Apply and the cached values move.
func TestMutate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := queryRequest{Tenant: "t1", Dataset: "tiny-chain", Algo: "SSSP", Mode: "unified"}
	resp := postJSON(t, ts.URL+"/v1/query", q)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	_, before := readNDJSON(t, resp.Body)
	resp.Body.Close()

	// A zero-weight shortcut from the source into the far end of the
	// chain must shrink some distances.
	m := mutateRequest{
		Tenant: "t1", Dataset: "tiny-chain", Algo: "SSSP", Mode: "unified",
		Inserts: []edgeJSON{{Src: 0, Dst: 250, W: 0.001}},
	}
	resp = postJSON(t, ts.URL+"/v1/mutate", m)
	var mres struct {
		Converged bool `json:"converged"`
		Rounds    int  `json:"rounds"`
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &mres); err != nil {
		t.Fatalf("decode mutate response %q: %v", body, err)
	}
	resp.Body.Close()
	if !mres.Converged {
		t.Fatalf("mutate epoch did not converge: %s", body)
	}

	resp = postJSON(t, ts.URL+"/v1/query", q)
	hdr, after := readNDJSON(t, resp.Body)
	resp.Body.Close()
	if !hdr.Cached {
		t.Fatalf("post-mutate query did not hit the cache")
	}
	improved := 0
	for k, v := range after {
		if old, ok := before[k]; ok && v < old {
			improved++
		}
	}
	if improved == 0 {
		t.Fatalf("no distance improved after inserting a shortcut edge")
	}
}

// TestMutateRefusesUnprovenDelete: a client-submitted selective program
// whose F' the compiler cannot prove safe for the support closure
// (DESIGN.md §10) is served and takes inserts, but a delete is a 400
// that names the reason, and the parked fixpoint stays as it was.
func TestMutateRefusesUnprovenDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const src = `
r1. d(X,v) :- X=0, v=10.
r2. d(Y,min[v1]) :- d(X,v), edge(X,Y,w), v1 = min(v,w).`
	q := queryRequest{Tenant: "t1", Dataset: "tiny-chain", Source: src, Mode: "unified"}
	resp := postJSON(t, ts.URL+"/v1/query", q)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	_, before := readNDJSON(t, resp.Body)
	resp.Body.Close()

	m := mutateRequest{Tenant: "t1", Dataset: "tiny-chain", Source: src, Mode: "unified",
		Deletes: []edgeJSON{{Src: 0, Dst: 1}}}
	resp = postJSON(t, ts.URL+"/v1/mutate", m)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// The body is the sentence plcheck prints for the program.
	prog, err := powerlog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	const reason = "deletes refused — F' = min(v, w) is neither strictly increasing in v nor a discount (max over a·v, 0 <= a <= 1)"
	if !strings.Contains(prog.Facts(), strings.TrimPrefix(reason, "deletes ")) {
		t.Fatalf("the program's facts do not carry the refusal:\n%s", prog.Facts())
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cannot delete") || !strings.Contains(string(body), reason) {
		t.Fatalf("delete: status %d body %s, want 400 naming the refusal: %s", resp.StatusCode, body, reason)
	}
	m.Deletes, m.Inserts = nil, []edgeJSON{{Src: 0, Dst: 250, W: 5}}
	resp = postJSON(t, ts.URL+"/v1/mutate", m)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert after the refused delete: status %d: %s", resp.StatusCode, body)
	}
	resp = postJSON(t, ts.URL+"/v1/query", q)
	_, after := readNDJSON(t, resp.Body)
	resp.Body.Close()
	for k, v := range before {
		if a, ok := after[k]; !ok || a > v {
			t.Fatalf("key %d went from %v to %v (held: %v): an insert only improves a min", k, v, a, ok)
		}
	}
}

// TestAdmissionRate checks the per-tenant token bucket: with burst 1
// and a negligible refill rate, the second fresh query is shed with 429
// while a different tenant still gets through.
func TestAdmissionRate(t *testing.T) {
	_, ts := newTestServer(t, Config{Rate: 0.0001, Burst: 1, MaxFixpoints: 4})
	q := queryRequest{Tenant: "t1", Dataset: "tiny-chain", Algo: "CC", Mode: "unified", Fresh: true}
	resp := postJSON(t, ts.URL+"/v1/query", q)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/query", q)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query status %d, want 429", resp.StatusCode)
	}
	q.Tenant = "t2"
	resp = postJSON(t, ts.URL+"/v1/query", q)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status %d, want 200", resp.StatusCode)
	}
}

// TestAdmissionSaturated checks the fixpoint semaphore: with every slot
// held, fresh queries and mutates shed with 503 + Retry-After.
func TestAdmissionSaturated(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxFixpoints: 1})
	if err := s.adm.acquireFixpoint(); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer s.adm.releaseFixpoint()

	q := queryRequest{Tenant: "t1", Dataset: "tiny-chain", Algo: "CC", Mode: "unified", Fresh: true}
	resp := postJSON(t, ts.URL+"/v1/query", q)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated query status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 without Retry-After")
	}
	resp.Body.Close()
}

// TestBudgetValidation feeds a negative budget through the HTTP layer;
// runtime.Config.Validate must reject it with a field-named ConfigError
// that maps to 400 (the Config.Validate satellite, observed end to
// end).
func TestBudgetValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := queryRequest{Tenant: "t1", Dataset: "tiny-chain", Algo: "SSSP", Mode: "unified", BudgetMS: -50, Fresh: true}
	resp := postJSON(t, ts.URL+"/v1/query", q)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative budget status %d: %s", resp.StatusCode, body)
	}
	var eb errBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("decode error body %q: %v", body, err)
	}
	if !strings.Contains(eb.Error, "CollectTimeout") && !strings.Contains(eb.Error, "MaxWall") {
		t.Fatalf("error %q does not name the rejected field", eb.Error)
	}
}

// TestBadRequests covers the 4xx surface: unknown dataset, unknown
// algo, unparseable mode, naive mode, mutate without a session.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  queryRequest
	}{
		{"unknown dataset", queryRequest{Tenant: "t", Dataset: "nope", Algo: "SSSP"}},
		{"unknown algo", queryRequest{Tenant: "t", Dataset: "tiny-chain", Algo: "FFT"}},
		{"unknown mode", queryRequest{Tenant: "t", Dataset: "tiny-chain", Algo: "SSSP", Mode: "warp"}},
		{"naive mode", queryRequest{Tenant: "t", Dataset: "tiny-chain", Algo: "SSSP", Mode: "naive"}},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/query", c.req)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	m := mutateRequest{Tenant: "t", Dataset: "tiny-chain", Algo: "SSSP", Mode: "unified",
		Inserts: []edgeJSON{{Src: 0, Dst: 1, W: 1}}}
	resp := postJSON(t, ts.URL+"/v1/mutate", m)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("mutate without session: status %d, want 404", resp.StatusCode)
	}
}

// TestDrain checks graceful shutdown: Close drains the pool; queries
// and mutates are then shed with 503 and /healthz reports draining,
// while /metrics and cached state stay readable semantics aside.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	q := queryRequest{Tenant: "t1", Dataset: "tiny-chain", Algo: "SSSP", Mode: "unified"}
	resp := postJSON(t, ts.URL+"/v1/query", q)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp = postJSON(t, ts.URL+"/v1/query", queryRequest{Tenant: "t1", Dataset: "tiny-chain", Algo: "CC", Mode: "unified", Fresh: true})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query status %d, want 503", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestConcurrentHandlers hammers one pooled session from concurrent
// HTTP clients mixing lookups and mutates. Every response must be one
// of the documented outcomes (200, 404 pre-fixpoint, 429, 503 busy) —
// never a hang, a 500, or a torn read. This is the HTTP-level companion
// of the runtime package's concurrent-session race tests.
func TestConcurrentHandlers(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent hammer needs real fixpoints; skip in -short")
	}
	_, ts := newTestServer(t, Config{Rate: 10000, Burst: 10000, MaxFixpoints: 2})
	q := queryRequest{Tenant: "t1", Dataset: "tiny-chain", Algo: "SSSP", Mode: "unified"}
	resp := postJSON(t, ts.URL+"/v1/query", q)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed query status %d", resp.StatusCode)
	}

	var wg sync.WaitGroup
	stop := time.Now().Add(500 * time.Millisecond)
	errc := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli := &http.Client{Timeout: 30 * time.Second}
			for i := 0; time.Now().Before(stop); i++ {
				if g%2 == 0 {
					r, err := cli.Get(ts.URL + "/v1/result?dataset=tiny-chain&algo=SSSP&mode=unified&key=1")
					if err != nil {
						errc <- err
						return
					}
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
					if r.StatusCode != http.StatusOK && r.StatusCode != http.StatusNotFound {
						errc <- fmt.Errorf("lookup status %d", r.StatusCode)
						return
					}
				} else {
					m := mutateRequest{Tenant: "t1", Dataset: "tiny-chain", Algo: "SSSP", Mode: "unified",
						Inserts: []edgeJSON{{Src: int32(g), Dst: int32(10 + i%200), W: 1}}}
					b, _ := json.Marshal(m)
					r, err := cli.Post(ts.URL+"/v1/mutate", "application/json", bytes.NewReader(b))
					if err != nil {
						errc <- err
						return
					}
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
					switch r.StatusCode {
					case http.StatusOK, http.StatusServiceUnavailable, http.StatusTooManyRequests:
					default:
						errc <- fmt.Errorf("mutate status %d", r.StatusCode)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
