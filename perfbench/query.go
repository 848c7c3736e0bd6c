package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/avail"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qindex"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/temporal"
)

// The query workload: one sparse G(n,p) temporal network (n·p = 8, four
// uniform labels per edge, lifetime n) served by the service's query
// handler over an LRU arrival index smaller than the full table, on a
// loopback listener, under a closed loop of one client connection per
// processor.
const (
	queryN          = 1024
	queryLabels     = 4
	queryStarts     = 2     // departure floors are drawn from [1, queryStarts]
	queryZipfS      = 1.1   // source popularity exponent
	queryPerPass    = 20000 // queries in one pass
	querySpanEvery  = 64    // traced passes span every 64th request
	queryCheckEvery = 23    // the oracle checks every 23rd query
)

// queryMemBudget holds a quarter of the full arrival table.
var queryMemBudget = qindex.FullTableBytes(queryN) / 4

type pointQuery struct {
	src, dst int
	start    int32
}

type queryLoad struct {
	seed  uint64
	procs int

	net     *temporal.Network
	queries []pointQuery
	mgr     *service.Manager
	srv     *http.Server
	done    chan error // Serve's return
	url     string
	clients []*http.Client

	answers       []int32   // the last pass's answers, in query order
	tracedSamples []float64 // client latencies of traced passes, µs
	reqNS         int64     // summed client latency of traced passes' requests
	rootNS        int64     // summed wall of traced passes
}

func newQuery(seed uint64, procs int) *queryLoad { return &queryLoad{seed: seed, procs: procs} }

func (q *queryLoad) name() string { return "query" }
func (q *queryLoad) conns() int   { return q.procs }

// genQueries draws the query stream: zipf-popular sources (ranked by a
// seeded permutation, so the hot vertices change with the seed), uniform
// destinations, uniform departure floors.
func genQueries(seed uint64, n, count int) []pointQuery {
	r := rand.New(rand.NewSource(int64(seed)))
	perm := r.Perm(n)
	z := rand.NewZipf(r, queryZipfS, 1, uint64(n-1))
	qs := make([]pointQuery, count)
	for i := range qs {
		qs[i] = pointQuery{src: perm[z.Uint64()], dst: r.Intn(n), start: int32(1 + r.Intn(queryStarts))}
	}
	return qs
}

func genNetwork(seed uint64) (*temporal.Network, error) {
	st := rng.New(seed)
	g := graph.Gnp(queryN, 8/float64(queryN), false, st)
	m, err := avail.Build("uniform", avail.Params{Lifetime: queryN, R: queryLabels})
	if err != nil {
		return nil, err
	}
	return avail.Network(m, g, st), nil
}

func (q *queryLoad) setup() error {
	tn, err := genNetwork(q.seed)
	if err != nil {
		return err
	}
	q.net = tn
	q.queries = genQueries(q.seed, queryN, queryPerPass)
	ix := qindex.New(tn, qindex.Options{Mode: qindex.ModeLRU, MemBudget: queryMemBudget, Workers: q.procs})
	q.mgr = service.New(service.Options{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	q.url = "http://" + ln.Addr().String() + "/query"
	q.srv = &http.Server{Handler: service.NewHandlerWith(q.mgr, service.NewQueryEngine(ix))}
	q.done = make(chan error, 1)
	go func() { q.done <- q.srv.Serve(ln) }()
	q.clients = make([]*http.Client, q.procs)
	for i := range q.clients {
		q.clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	// Warm-up: one pass over the stream fills the LRU and opens the
	// connections.
	_, err = q.pass(obs.Span{})
	return err
}

func (q *queryLoad) close() {
	if q.srv == nil {
		return
	}
	for _, c := range q.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = q.srv.Shutdown(ctx) // a timeout leaves only idle loopback connections behind
	if err := <-q.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: query server:", err)
	}
	q.mgr.Close()
	q.srv = nil
}

// ask sends one point query and returns its arrival (-1 unreachable).
func ask(c *http.Client, url string, pq pointQuery) (int32, error) {
	resp, err := c.Get(url + "?src=" + strconv.Itoa(pq.src) + "&dst=" + strconv.Itoa(pq.dst) +
		"&start=" + strconv.Itoa(int(pq.start)))
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var ans service.QueryAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return 0, err
	}
	return ans.Arrival, nil
}

// pass runs the query stream through a closed loop: each client sends its
// next query once the previous answer is in.
func (q *queryLoad) pass(root obs.Span) (passOut, error) {
	traced := root.Context().Valid()
	answers := make([]int32, len(q.queries))
	lat := make([]float64, len(q.queries))
	var cursor atomic.Int64
	var failed atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range q.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(q.queries) {
					return
				}
				var sp obs.Span
				if traced && i%querySpanEvery == 0 {
					sp = root.Child("service.request")
				}
				t0 := time.Now()
				a, err := ask(c, q.url, q.queries[i])
				d := time.Since(t0)
				sp.End()
				lat[i] = float64(d.Nanoseconds()) / 1e3
				if err != nil {
					failed.Add(1)
					errOnce.Do(func() { firstErr = err })
					answers[i] = -2
					continue
				}
				answers[i] = a
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: query failed:", firstErr)
	}
	q.answers = answers
	if traced {
		q.tracedSamples = append(q.tracedSamples, lat...)
		for _, us := range lat {
			q.reqNS += int64(us * 1e3)
		}
		q.rootNS += time.Since(t0).Nanoseconds()
	}
	h := fnv.New64a()
	for _, a := range answers {
		h.Write([]byte{byte(a), byte(a >> 8), byte(a >> 16), byte(a >> 24)})
	}
	return passOut{ops: len(q.queries), failed: int(failed.Load()), samples: lat,
		digest: strconv.FormatUint(h.Sum64(), 16)}, nil
}

// check compares every queryCheckEvery-th answer of the last pass with a
// linear-scan oracle row of the same network.
func (q *queryLoad) check() (attempted, failed int, notes []string) {
	arr := make([]int32, queryN)
	want := make([]int32, queryN)
	for i := 0; i < len(q.queries); i += queryCheckEvery {
		pq := q.queries[i]
		linearFrom(q.net, pq.src, pq.start, want)
		if pq.start == 1 {
			// Anchor the floor-aware scan to the program's own linear
			// kernel wherever both apply.
			q.net.EarliestArrivalsLinearInto(pq.src, arr)
			attempted++
			if !slices.Equal(arr, want) {
				failed++
				notes = append(notes, fmt.Sprintf("linear oracle disagrees with EarliestArrivalsLinearInto at src %d", pq.src))
			}
		}
		exp := want[pq.dst]
		if exp == temporal.Unreachable {
			exp = -1
		}
		attempted++
		if q.answers[i] != exp {
			failed++
			notes = append(notes, fmt.Sprintf("query %d (%d→%d from %d): served %d, oracle %d", i, pq.src, pq.dst, pq.start, q.answers[i], exp))
		}
	}
	return attempted, failed, notes
}

// linearFrom is the linear earliest-arrival scan with a departure floor:
// time edges in label order, a hop usable when its label is at least
// start and later than the arrival at its tail.
func linearFrom(n *temporal.Network, s int, start int32, arr []int32) {
	for i := range arr {
		arr[i] = temporal.Unreachable
	}
	arr[s] = 0
	// floor is the arrival a hop out of v must follow; the source's is
	// start-1, so its first hop departs at start or later.
	floor := func(v int) int32 {
		if v == s {
			return start - 1
		}
		return arr[v]
	}
	directed := n.Graph().Directed()
	n.TimeEdges(func(_, u, v int, l int32) {
		if floor(u) < l && l < arr[v] {
			arr[v] = l
		} else if !directed && floor(v) < l && l < arr[u] {
			arr[u] = l
		}
	})
}

func (q *queryLoad) premise(reg expo) error {
	if reg.sum("qindex_hits_total")+reg.sum("qindex_misses_total") == 0 {
		return errors.New("no query reached the index")
	}
	if reg.sum("qindex_misses_total") == 0 {
		return errors.New("no query missed the index; the workload measures both paths")
	}
	return nil
}

func (q *queryLoad) layers(l *layerRun, m map[string]float64) {
	s := slices.Clone(q.tracedSamples)
	slices.Sort(s)
	if len(s) > 0 {
		p50, _ := quantile(s, 0.5)
		m["service.transport_us_p50"] = p50 - m["service.server_us_p50"]
	}
	// Spans sample every querySpanEvery-th request, but every request's
	// client latency is measured, so coverage uses all of them.
	m["trace.coverage_frac"] = safeDiv(float64(q.reqNS), float64(q.rootNS*int64(q.procs)))
}
