package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"powerlog/internal/gen"
	"powerlog/internal/graph"
	"powerlog/internal/metrics"
	"powerlog/internal/progs"
	"powerlog/internal/ref"
	"powerlog/internal/server"
)

// serveRunner is serve-read-write: the serving front end behind
// net/http on loopback, one parked SSSP session, and two closed-loop
// clients — a reader doing point lookups and a single writer posting
// small insert batches back to back. Reads run beside writes on one
// session, so a gain for one side that costs the other shows. With one
// writer the session is never busy when a mutate arrives: any non-200
// is a failed op.
type serveRunner struct {
	dataset string
	batch   int // edges per mutate
	warm    time.Duration

	tsv  string
	n    int
	seed int64
	p    *pipeline
	srv  *server.Server
	hs   *http.Server
	base string
	cli  *http.Client

	keys     []int64      // vertices reachable at the start: every lookup has an answer
	inserted []graph.Edge // every edge a successful mutate added
	rngW     *rand.Rand
	rngR     *rand.Rand
	low      map[int64]float64 // lowest value each key has been seen at
	op       int

	// What the server's own mutate histogram and the scrapes said over
	// the measured sections (for server.handler_overhead_ms and
	// metrics.scrape_ms).
	handlerUS, handlerN float64
	scrapeMS            []float64
}

func newServe(toy bool) *serveRunner {
	if toy {
		return &serveRunner{dataset: "tiny-rmat", batch: 8, warm: 50 * time.Millisecond}
	}
	return &serveRunner{dataset: "Flickr", batch: 8, warm: 2 * time.Second}
}

// generate writes the server's own dataset out as TSV. The server loads
// its catalogue datasets by name, so the graph is fixed; what the seed
// drives is the reader's key sequence and the writer's edge sequence.
func (w *serveRunner) generate(dir string, seed int64) error {
	var g *graph.Graph
	for _, d := range append(gen.Datasets(), gen.TinyDatasets()...) {
		if d.Name == w.dataset {
			g = d.Build(true)
		}
	}
	if g == nil {
		return fmt.Errorf("unknown dataset %q", w.dataset)
	}
	w.tsv, w.n, w.seed = filepath.Join(dir, "serve-"+w.dataset+".tsv"), g.NumVertices(), seed
	return writeTSV(w.tsv, g)
}

// setup runs the shared pipeline (its graph is the oracle's), starts
// the server and parks the session with the warm-up query.
func (w *serveRunner) setup(tr *tracer, parent int) (err error) {
	if w.p, err = buildPipeline(tr, parent, w.tsv, progs.SSSP, w.n, true); err != nil {
		return err
	}
	sp := tr.begin("server.New+Listen", parent, 0)
	w.srv = server.New(server.Config{Workers: 2, Rate: 1e9, MaxFixpoints: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go w.hs.Serve(ln) // returns when teardown closes the server
	w.base = "http://" + ln.Addr().String()
	w.cli = &http.Client{Timeout: time.Minute}
	tr.end(sp)

	sp = tr.begin("POST /v1/query", parent, 0)
	_, err = w.query()
	tr.end(sp)
	return err
}

func (w *serveRunner) teardown() error {
	if w.hs == nil {
		return nil
	}
	w.cli.CloseIdleConnections()
	err := w.hs.Close()
	if cerr := w.srv.Close(); err == nil {
		err = cerr
	}
	w.hs = nil
	return err
}

func (w *serveRunner) pipe() *pipeline { return w.p }

type serveRequest struct {
	Tenant  string      `json:"tenant"`
	Dataset string      `json:"dataset"`
	Algo    string      `json:"algo"`
	Mode    string      `json:"mode"`
	Inserts []serveEdge `json:"inserts,omitempty"`
}

type serveEdge struct {
	Src int32   `json:"src"`
	Dst int32   `json:"dst"`
	W   float64 `json:"w"`
}

func (w *serveRunner) post(path string, body serveRequest) (*http.Response, error) {
	body.Tenant, body.Dataset, body.Algo, body.Mode = "plperf", w.dataset, "SSSP", "unified"
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return w.cli.Post(w.base+path, "application/json", bytes.NewReader(b))
}

// query posts /v1/query and returns the streamed fixpoint.
func (w *serveRunner) query() (map[int64]float64, error) {
	resp, err := w.post("/v1/query", serveRequest{})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := httpVerdict(resp.StatusCode); err != nil {
		return nil, fmt.Errorf("/v1/query: %w", err)
	}
	sc := bufio.NewScanner(resp.Body)
	var hdr struct {
		Converged bool `json:"converged"`
		Values    int  `json:"values"`
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("/v1/query: empty response")
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("/v1/query header: %w", err)
	}
	if !hdr.Converged {
		return nil, fmt.Errorf("/v1/query: Converged=false")
	}
	vals := make(map[int64]float64, hdr.Values)
	for sc.Scan() {
		var kv struct {
			K int64   `json:"k"`
			V float64 `json:"v"`
		}
		if err := json.Unmarshal(sc.Bytes(), &kv); err != nil {
			return nil, fmt.Errorf("/v1/query value line: %w", err)
		}
		vals[kv.K] = kv.V
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(vals) != hdr.Values {
		return nil, fmt.Errorf("/v1/query: header promises %d values, stream has %d", hdr.Values, len(vals))
	}
	return vals, nil
}

func (w *serveRunner) warmup() error {
	want := ref.Dijkstra(w.p.g, 0)
	w.keys, w.inserted = w.keys[:0], nil
	w.low = make(map[int64]float64, len(want))
	for v, d := range want {
		if !math.IsInf(d, 1) {
			w.keys = append(w.keys, int64(v))
			w.low[int64(v)] = d
		}
	}
	w.rngR = rand.New(rand.NewSource(w.seed))
	w.rngW = rand.New(rand.NewSource(w.seed + 1))
	got, err := w.query()
	if err != nil {
		return err
	}
	if err := checkValues(got, want, 1e-9); err != nil {
		return err
	}
	var m measurement
	if err := w.measure(w.warm, 1, nil, &m); err != nil {
		return err
	}
	w.handlerUS, w.handlerN, w.scrapeMS = 0, 0, nil
	if m.ops.firstErr != nil {
		return m.ops.firstErr
	}
	return m.writes.firstErr
}

// lookup is the reader's op: GET /v1/result for one key. Between two
// lookups of a key only inserts happen, so its distance may never rise.
func (w *serveRunner) lookup(key int64) error {
	resp, err := w.cli.Get(fmt.Sprintf("%s/v1/result?dataset=%s&algo=SSSP&mode=unified&key=%d", w.base, w.dataset, key))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := httpVerdict(resp.StatusCode); err != nil {
		io.Copy(io.Discard, resp.Body)
		return err
	}
	var kv struct {
		K int64   `json:"k"`
		V float64 `json:"v"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&kv); err != nil {
		return err
	}
	if kv.K != key {
		return fmt.Errorf("asked for key %d, got key %d", key, kv.K)
	}
	if kv.V > w.low[key] {
		return fmt.Errorf("key %d rose from %v to %v under inserts", key, w.low[key], kv.V)
	}
	w.low[key] = kv.V
	return nil
}

// mutate is the writer's op: POST /v1/mutate with a batch of inserts.
func (w *serveRunner) mutate() (float64, error) {
	edges := make([]serveEdge, w.batch)
	for i := range edges {
		edges[i] = serveEdge{Src: int32(w.rngW.Intn(w.n)), Dst: int32(w.rngW.Intn(w.n)), W: 1 + 99*w.rngW.Float64()}
	}
	t0 := time.Now()
	resp, err := w.post("/v1/mutate", serveRequest{Inserts: edges})
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Converged bool `json:"converged"`
	}
	if err := httpVerdict(resp.StatusCode); err != nil {
		io.Copy(io.Discard, resp.Body)
		return 0, err
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	ms := msSince(t0)
	if !out.Converged {
		return 0, fmt.Errorf("/v1/mutate: Converged=false")
	}
	for _, e := range edges {
		w.inserted = append(w.inserted, graph.Edge{Src: e.Src, Dst: e.Dst, W: e.W})
	}
	return ms, nil
}

// measure runs the reader and the writer side by side for d. Each is a
// closed loop: the next request leaves when the previous one returned.
// The writer makes at least minOps writes, the reader at least ten
// times as many lookups and keeps going until the writer is done, so
// every write has reads beside it. /metrics is scraped, and checked for
// conformance, on both sides of the section.
func (w *serveRunner) measure(d time.Duration, minOps int, tr *tracer, m *measurement) error {
	before, _, err := w.scrape(nil)
	if err != nil {
		return err
	}
	if m.ops.ms == nil {
		// Full size from the start: the peak resident set must not ride
		// on how far append happened to grow a buffer of this length.
		m.ops.ms = make([]float64, 0, 1<<20)
	}
	start := time.Now()
	stop := start.Add(d)
	writing := make(chan struct{})
	go func() {
		defer close(writing)
		for i := 0; time.Now().Before(stop) || i < minOps; i++ {
			sp := tr.begin("POST /v1/mutate", -1, 0)
			ms, err := w.mutate()
			tr.end(sp)
			m.writes.record(ms, err)
		}
	}()
	for i, written := 0, false; !written || i < 10*minOps; i++ {
		w.op++
		key := w.keys[w.rngR.Intn(len(w.keys))]
		sp := tr.begin("op", -1, w.op) // the op is one GET /v1/result
		t0 := time.Now()
		err := w.lookup(key)
		ms := msSince(t0)
		tr.end(sp)
		m.ops.record(ms, err)
		select {
		case <-writing:
			written = true
		default:
		}
	}
	<-writing
	m.elapsed += time.Since(start)

	after, ms, err := w.scrape(tr)
	if err != nil {
		return err
	}
	w.scrapeMS = append(w.scrapeMS, ms)
	for name, into := range map[string]*float64{
		"powerlog_serve_mutate_latency_us_sum":   &w.handlerUS,
		"powerlog_serve_mutate_latency_us_count": &w.handlerN,
	} {
		a, err := promValue(before, name)
		if err != nil {
			return err
		}
		b, err := promValue(after, name)
		if err != nil {
			return err
		}
		*into += b - a
	}
	return nil
}

// serverLayers derives the server.* metrics from measured sections m
// and what the scrapes around them said. handler_overhead is what the
// HTTP stack, loopback and JSON add on top of the handler's own time:
// the client's mean mutate latency minus the server-side mean.
func (w *serveRunner) serverLayers(m *measurement, out layers) error {
	var err error
	pct := func(xs []float64, p float64) float64 {
		v, perr := percentile(xs, p)
		if err == nil {
			err = perr
		}
		return v
	}
	out["server.lookup_ms_p50"] = pct(m.ops.ms, 50)
	out["server.lookup_ms_p99"] = pct(m.ops.ms, 99)
	out["server.mutate_ms_p50"] = pct(m.writes.ms, 50)
	out["server.mutate_ms_p90"] = pct(m.writes.ms, 90)
	out["server.handler_overhead_ms"] = mean(m.writes.ms) - ratio(w.handlerUS, w.handlerN)/1e3
	out["server.reads_per_s"] = ratio(float64(len(m.ops.ms)), m.elapsed.Seconds())
	out["server.writes_per_s"] = ratio(float64(len(m.writes.ms)), m.elapsed.Seconds())
	out["metrics.scrape_ms"] = median(w.scrapeMS)
	return err
}

// verify demands full equality after the run: the parked fixpoint must
// be Dijkstra's on the base graph plus every inserted edge, and no
// lookup may have seen a value below that.
func (w *serveRunner) verify() error {
	edges := append(w.p.g.Edges(), w.inserted...)
	g, err := graph.FromEdges(w.n, edges, true)
	if err != nil {
		return err
	}
	want := ref.Dijkstra(g, 0)
	got, err := w.query()
	if err != nil {
		return err
	}
	if err := checkValues(got, want, 1e-9); err != nil {
		return err
	}
	for k, v := range w.low {
		if v < want[k]-1e-9 {
			return fmt.Errorf("a lookup of key %d returned %v, below the final distance %v", k, v, want[k])
		}
	}
	return nil
}

// scrape fetches /metrics, checks the exposition format and returns the
// body with the time the scrape took.
func (w *serveRunner) scrape(tr *tracer) (string, float64, error) {
	sp := tr.begin("GET /metrics", -1, 0)
	t0 := time.Now()
	resp, err := w.cli.Get(w.base + "/metrics")
	if err != nil {
		return "", 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := msSince(t0)
	tr.end(sp)
	if err != nil {
		return "", 0, err
	}
	if err := httpVerdict(resp.StatusCode); err != nil {
		return "", 0, fmt.Errorf("/metrics: %w", err)
	}
	if err := metrics.CheckExposition(body); err != nil {
		return "", 0, fmt.Errorf("/metrics fails exposition conformance: %w", err)
	}
	return string(body), ms, nil
}

// promValue returns the value of the sample called name in a
// Prometheus text exposition.
func promValue(body, name string) (float64, error) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscan(rest, &v); err != nil {
				return 0, fmt.Errorf("sample %s: %w", name, err)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("/metrics has no sample %s", name)
}
