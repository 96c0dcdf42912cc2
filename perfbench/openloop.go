package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"aliaslimit/internal/aliasd"
	"aliaslimit/internal/obsfile"
	"aliaslimit/internal/xrand"
)

const (
	// ingestBatch is the number of NDJSON lines per ingest request.
	ingestBatch = 400
	// queryRate is the fixed query schedule on the second connection, in
	// requests per second.
	queryRate = 20.0
	// ingestLimit is the ingest p99 a sustained rate must meet.
	ingestLimit = 50 * time.Millisecond
	// rounds is how often the measured part cycles through the capacity
	// passes and every offered rate, so each figure samples the whole run
	// rather than one stretch of it.
	rounds = 3
	// capacityShare is the share of the run's time spent pricing one
	// connection's closed-loop capacity, at least one corpus ingest a round.
	capacityShare = 0.1
	// rateShare is the share of the run's time each offered rate gets.
	rateShare = 0.28
)

// offeredRates are the open-loop ingest schedules in observations per
// second: about 0.2, 0.33 and 0.5 of one connection's closed-loop capacity
// on a 2-CPU container (about 330k obs/s). A query snapshot holds the
// session while it copies the sets, so with the query stream running, rates
// from 0.6 of capacity up overflowed the default ingest queue (429) in some
// runs; the top rate stays below that. The rates are fixed, so a slower
// daemon meets the same load and shows it in latency.
var offeredRates = []float64{60e3, 110e3, 160e3}

// midRate indexes the rate the end-to-end latency is reported at.
const midRate = 1

// queryViews is the query rotation: the six views, each followed by the
// stats call ("") that also samples the backlog.
var queryViews = []string{"ssh", "", "bgp", "", "snmpv3", "", "union-v4", "", "union-v6", "", "dualstack", ""}

// daemon is aliasd-openloop's set-up: an in-process server on loopback and
// the corpus as pre-encoded ingest request bodies.
type daemon struct {
	srv  *aliasd.Server
	hs   *http.Server
	base string
	// bodies are the corpus's ingest requests, ingestBatch lines each.
	bodies [][]byte
	obs    int
	want   string
	// ingest and query are the benchmark's two connections.
	ingest, query *http.Client
}

// oneConnClient is an HTTP client that never opens a second connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// startDaemon collects the corpus, encodes it as ingest request bodies in a
// seed-shuffled order, and starts the server.
func (r *runner) startDaemon(round int) (*daemon, error) {
	dir := filepath.Join(r.tmp, fmt.Sprintf("corpus-%d", round))
	refs, err := r.runCorpus(dir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, corpusLines))
	if err != nil {
		return nil, err
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if n := len(lines); len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	d := &daemon{obs: len(lines), want: refs.Scored, ingest: oneConnClient(), query: oneConnClient()}
	order := xrand.NewSplitMix64(r.cfg.seed).Perm(len(lines))
	for lo := 0; lo < len(order); lo += ingestBatch {
		var body []byte
		for _, i := range order[lo:min(lo+ingestBatch, len(order))] {
			body = append(body, lines[i]...)
		}
		d.bodies = append(d.bodies, body)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.srv = aliasd.NewServer(aliasd.Config{MaxSessions: 256})
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go d.hs.Serve(ln)
	d.base = "http://" + ln.Addr().String()
	return d, nil
}

// stop drains the server and closes the benchmark's connections.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	d.hs.Shutdown(ctx)
	d.ingest.CloseIdleConnections()
	d.query.CloseIdleConnections()
}

// call sends one request and decodes a JSON reply into out when it is set.
func (d *daemon) call(c *http.Client, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && (resp.StatusCode < 300 || resp.StatusCode == http.StatusTooManyRequests) {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// statsReply is the part of /v1/stats the benchmark reads.
type statsReply struct {
	Received   int64  `json:"received"`
	Applied    int64  `json:"applied"`
	SetsDigest string `json:"sets_digest"`
}

// tenant drives one session over the ingest connection.
type tenant struct {
	d  *daemon
	id string
	r  *runner
	// refused counts 429 replies.
	refused int
}

// newTenant creates a session; a failure is counted and returns nil.
func (r *runner) newTenant(d *daemon) *tenant {
	var info struct {
		ID string `json:"id"`
	}
	status, err := d.call(d.ingest, http.MethodPost, "/v1/sessions", []byte("{}"), &info)
	r.check(err == nil && status == http.StatusCreated, "create session: status %d err %v", status, err)
	if err != nil || status != http.StatusCreated {
		return nil
	}
	return &tenant{d: d, id: info.ID, r: r}
}

// send ingests one request body, resending the unaccepted rest after each
// 429. Every reply other than 200 counts as a failed request.
func (t *tenant) send(body []byte) {
	for len(body) > 0 {
		var reply struct {
			Accepted int `json:"accepted"`
		}
		status, err := t.d.call(t.d.ingest, http.MethodPost, "/v1/ingest?session="+t.id, body, &reply)
		t.r.check(err == nil && status == http.StatusOK, "ingest into %s: status %d err %v", t.id, status, err)
		if err != nil || status != http.StatusTooManyRequests {
			return
		}
		t.refused++
		body = skipLines(body, reply.Accepted)
	}
}

// skipLines drops the first n lines of an NDJSON body.
func skipLines(body []byte, n int) []byte {
	for ; n > 0 && len(body) > 0; n-- {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return nil
		}
		body = body[i+1:]
	}
	return body
}

// verify flushes the tenant, checks its digest against the batch backend's
// and deletes it, over the given connection.
func (t *tenant) verify(c *http.Client) {
	d := t.d
	status, err := d.call(c, http.MethodPost, "/v1/flush?session="+t.id, nil, nil)
	t.r.check(err == nil && status == http.StatusOK, "flush %s: status %d err %v", t.id, status, err)
	var st statsReply
	status, err = d.call(c, http.MethodGet, "/v1/stats?session="+t.id, nil, &st)
	t.r.check(err == nil && status == http.StatusOK && st.SetsDigest == t.r.reference(d.want),
		"tenant %s: status %d err %v, digest %.12s want %.12s", t.id, status, err, st.SetsDigest, d.want)
	status, err = d.call(c, http.MethodDelete, "/v1/sessions/"+t.id, nil, nil)
	t.r.check(err == nil && status == http.StatusNoContent, "delete %s: status %d err %v", t.id, status, err)
}

// runAliasdOpenLoop is the aliasd-openloop workload. Set-up collects the x10
// corpus, encodes it as NDJSON ingest requests and starts an in-process
// server on loopback. Each round of the measured part ingests the corpus
// closed-loop over one connection to price its capacity, then runs an
// open-loop schedule of ingest requests to fresh sessions at each offered
// rate while a fixed-rate query stream reads the live session over a second
// connection. Every tenant must converge to the batch backend's digest.
func runAliasdOpenLoop(r *runner) error {
	var d *daemon
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = r.startDaemon(i); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()

	var capacity, traced, plain []float64
	phases := make([]phaseResult, len(offeredRates))
	rss := startRSSSampler()
	defer rss.close()
	rss.lap(true)
	capLen := time.Duration(capacityShare / rounds * float64(r.seconds()))
	blockLen := time.Duration(rateShare / rounds * float64(r.seconds()))
	for round, pass := 0, 0; round < rounds; round++ {
		for start := time.Now(); time.Since(start) < capLen || pass < round+1; pass++ {
			var tr *tracer
			if r.tr != nil && pass%2 == 1 {
				tr = r.tr
			}
			wall := r.capacityPass(d, tr)
			if wall <= 0 {
				continue
			}
			capacity = append(capacity, float64(d.obs)/wall.Seconds())
			if tr != nil {
				traced = append(traced, wall.Seconds())
			} else {
				plain = append(plain, wall.Seconds())
			}
		}
		for i, rate := range offeredRates {
			phases[i].add(r.openLoopBlock(d, rate, blockLen))
		}
	}
	peak := rss.lap(false)

	v := r.values
	mid := phases[midRate]
	v["setup_s"] = medianOf(setups)
	v["op_p50_ms"] = percentileMs(mid.ingest, 0.5)
	v["cpu_us_per_obs"] = float64(mid.cpu.Microseconds()) / float64(max(mid.obs, 1))
	v["obs_per_s"] = medianOf(capacity)
	v["peak_rss_mib"] = peak
	v["aliasd.ingest_p50_ms"] = percentileMs(mid.ingest, 0.5)
	v["aliasd.ingest_p99_ms"] = percentileMs(mid.ingest, 0.99)
	v["aliasd.query_p50_ms"] = percentileMs(mid.query, 0.5)
	v["aliasd.query_p99_ms"] = percentileMs(mid.query, 0.99)
	v["aliasd.drain_ms"] = percentileMs(mid.drains, 0.5)
	var lags []time.Duration
	for _, p := range phases {
		lags = append(lags, p.lag...)
		v["aliasd.backlog_obs_max"] = max(v["aliasd.backlog_obs_max"], float64(p.backlogMax))
		v["aliasd.refused_429"] += float64(p.refused)
		if p.sustained() {
			v["aliasd.sustained_obs_per_s"] = p.rate
		}
		r.logf("rate %.0f obs/s: %d ingests p50 %.2fms p99 %.2fms, %d queries p50 %.2fms p99 %.2fms, backlog max %d, grew %v, refused %d, drain p50 %.2fms",
			p.rate, len(p.ingest), percentileMs(p.ingest, 0.5), percentileMs(p.ingest, 0.99),
			len(p.query), percentileMs(p.query, 0.5), percentileMs(p.query, 0.99),
			p.backlogMax, p.grew, p.refused, percentileMs(p.drains, 0.5))
	}
	v["bench.gen_lag_ms_p99"] = percentileMs(lags, 0.99)
	q1, q3 := quartiles(capacity)
	r.logf("capacity quartiles %.0f %.0f %.0f obs/s over %d passes of %d observations", q1, medianOf(capacity), q3, len(capacity), d.obs)
	if r.tr != nil {
		v["trace.overhead_frac"] = medianOf(traced)/medianOf(plain) - 1
		r.leafDecode(d)
	}
	return nil
}

// capacityPass ingests the whole corpus into a fresh session as fast as one
// connection allows and returns the time until the session has applied it.
func (r *runner) capacityPass(d *daemon, tr *tracer) time.Duration {
	root := tr.begin("bench.capacity", noSpan)
	defer tr.end(root)
	t := r.newTenant(d)
	if t == nil {
		return 0
	}
	t0 := time.Now()
	for _, body := range d.bodies {
		s := time.Now()
		t.send(body)
		tr.record("aliasd.ingest", root, s, time.Now())
	}
	s := time.Now()
	status, err := d.call(d.ingest, http.MethodPost, "/v1/flush?session="+t.id, nil, nil)
	tr.record("aliasd.flush", root, s, time.Now())
	wall := time.Since(t0)
	r.check(err == nil && status == http.StatusOK, "flush %s: status %d err %v", t.id, status, err)
	t.verify(d.ingest)
	return wall
}

// phaseResult is one open-loop rate's outcome, over one block or summed
// over the blocks of a run.
type phaseResult struct {
	rate float64
	// ingest and query latencies run from each request's due time; lag is
	// how late the generator released each ingest request.
	ingest, query, lag []time.Duration
	backlogMax         int64
	// grew records a block whose backlog rose while it ran.
	grew    bool
	refused int
	obs     int
	cpu     time.Duration
	// drains are the times the last tenant of each block took to flush.
	drains []time.Duration
}

// add folds one block's outcome into the rate's total.
func (p *phaseResult) add(b phaseResult) {
	p.rate = b.rate
	p.ingest = append(p.ingest, b.ingest...)
	p.query = append(p.query, b.query...)
	p.lag = append(p.lag, b.lag...)
	p.backlogMax = max(p.backlogMax, b.backlogMax)
	p.grew = p.grew || b.grew
	p.refused += b.refused
	p.obs += b.obs
	p.cpu += b.cpu
	p.drains = append(p.drains, b.drains...)
}

// growing reports whether backlog samples rose across a block: the second
// half's mean exceeds the first half's by more than one request.
func growing(backlog []int64) bool {
	n := len(backlog)
	if n < 4 {
		return false
	}
	mean := func(xs []int64) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	return mean(backlog[n/2:]) > mean(backlog[:n/2])+ingestBatch
}

// sustained reports whether the rate met the latency limit with nothing
// refused and no growing backlog.
func (p phaseResult) sustained() bool {
	return p.refused == 0 && percentileMs(p.ingest, 0.99) <= float64(ingestLimit)/float64(time.Millisecond) && !p.grew
}

// job is one scheduled ingest request.
type job struct {
	seq int
	due time.Time
}

// openLoopBlock runs one offered rate for about blockLen: a whole number of
// corpus passes, each into a fresh tenant, so every tenant can be verified.
func (r *runner) openLoopBlock(d *daemon, rate float64, blockLen time.Duration) phaseResult {
	res := phaseResult{rate: rate}
	interval := time.Duration(float64(ingestBatch) / rate * float64(time.Second))
	per := len(d.bodies)
	n := max(int(blockLen/interval)/per, 1) * per
	root := r.tr.begin("bench.phase", noSpan)
	c0 := processCPU()
	start := time.Now().Add(time.Millisecond)
	end := start.Add(time.Duration(n) * interval)

	// The generator releases each request at its due time, whatever the
	// server is doing; the channel holds every request of the phase, so it
	// never blocks.
	jobs := make(chan job, n)
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			res.lag = append(res.lag, time.Since(due))
			jobs <- job{i, due}
		}
	}()

	var current atomic.Pointer[tenant]
	var wg sync.WaitGroup
	var backlog []int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		backlog = r.queryStream(d, &current, start, end, root, &res)
	}()

	var tenants []*tenant
	var t *tenant
	for j := range jobs {
		if j.seq%per == 0 {
			if t = r.newTenant(d); t != nil {
				tenants = append(tenants, t)
				current.Store(t)
			}
		}
		if t != nil {
			t.send(d.bodies[j.seq%per])
		}
		done := time.Now()
		res.ingest = append(res.ingest, done.Sub(j.due))
		r.tr.record("aliasd.ingest", root, j.due, done)
	}
	wg.Wait()
	res.grew = growing(backlog)
	res.obs = n / per * d.obs
	res.cpu = processCPU() - c0
	r.tr.end(root)

	if t != nil {
		s := time.Now()
		status, err := d.call(d.ingest, http.MethodPost, "/v1/flush?session="+t.id, nil, nil)
		res.drains = append(res.drains, time.Since(s))
		r.check(err == nil && status == http.StatusOK, "drain %s: status %d err %v", t.id, status, err)
	}
	for _, t := range tenants {
		res.refused += t.refused
		t.verify(d.ingest)
	}
	return res
}

// queryStream sends the fixed-rate query rotation to the live tenant until
// end, timing each query from its due time, and returns the backlog samples.
func (r *runner) queryStream(d *daemon, current *atomic.Pointer[tenant], start, end time.Time, root int32, res *phaseResult) []int64 {
	var backlog []int64
	interval := time.Duration(float64(time.Second) / queryRate)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			return backlog
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		t := current.Load()
		if t == nil {
			continue
		}
		view := queryViews[k%len(queryViews)]
		var st statsReply
		var status int
		var err error
		if view == "" {
			status, err = d.call(d.query, http.MethodGet, "/v1/stats?session="+t.id, nil, &st)
		} else {
			status, err = d.call(d.query, http.MethodGet, "/v1/sets?session="+t.id+"&view="+view, nil, nil)
		}
		done := time.Now()
		r.check(err == nil && status == http.StatusOK, "query %q on %s: status %d err %v", view, t.id, status, err)
		res.query = append(res.query, done.Sub(due))
		r.tr.record("aliasd.query", root, due, done)
		if view == "" && err == nil {
			b := st.Received - st.Applied
			backlog = append(backlog, b)
			res.backlogMax = max(res.backlogMax, b)
		}
	}
}

// leafDecode prices NDJSON decoding alone: obsfile.Read over the whole
// corpus.
func (r *runner) leafDecode(d *daemon) {
	body := bytes.Join(d.bodies, nil)
	root := r.tr.begin("bench.leaf", noSpan)
	err := r.tr.stage("obsfile.decode", root, func() error {
		obs, err := obsfile.Read(bytes.NewReader(body))
		if err == nil && len(obs) != d.obs {
			err = fmt.Errorf("decoded %d observations, want %d", len(obs), d.obs)
		}
		return err
	})
	r.tr.end(root)
	r.check(err == nil, "obsfile decode: %v", err)
	r.values["obsfile.decode_us_per_obs"] = float64(r.tr.total("obsfile.decode").Microseconds()) / float64(d.obs)
}
