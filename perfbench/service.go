package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"ncg/internal/campaign"
	"ncg/internal/coord"
)

// serviceVariants are played on random-tree starts with a small state cap:
// each search is cheap, so the per-shard lease, upload, fsync, in-order
// merge and stream notification weigh far more than in hunt.
var serviceVariants = []string{"sum-sg", "max-sg", "sum-asg", "max-asg"}

// serviceShard is the instances per shard. With one, the commit path's
// three fsyncs per instance made a run's wall follow the host disk: run
// alternately over the same minutes, five seeds spread by 47% (quartile
// distance over median) with one instance per shard, 22% with two, 11%
// with four and 19% with eight.
const serviceShard = 4

// serviceSize is the workload's shape for a run length.
type serviceSize struct {
	n, instances, maxStates int
}

func sizeService(secs int) serviceSize {
	// About 200 instances/s. 250 instances per cell is the least that
	// keeps every tail reportable: 1000 records for the stream-lag p99,
	// and 252 shards where the per-shard p95s need 200.
	return serviceSize{n: 10, instances: max(250, 50*secs), maxStates: 200}
}

func runService(cfg config) (*result, error) {
	return service(cfg, sizeService(cfg.seconds))
}

// served is a coordinator behind a test server.
type served struct {
	dir string
	co  *coord.Coordinator
	srv *httptest.Server
}

func serve(c campaign.Campaign, dir string, wrap func(http.Handler) http.Handler) (*served, error) {
	co, err := coord.Open(coord.Config{Campaign: c, Dir: dir, ShardSize: serviceShard})
	if err != nil {
		return nil, err
	}
	h := co.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	return &served{dir: dir, co: co, srv: httptest.NewServer(h)}, nil
}

func (s *served) close() error {
	s.srv.Close()
	return s.co.Close()
}

func service(cfg config, size serviceSize) (*result, error) {
	seed := deriveSeed(cfg.seed, "service")
	res := newResult()
	var c campaign.Campaign
	var sv *served
	defer func() {
		if sv != nil {
			sv.close()
		}
	}()

	// Set-up: resolve the campaign, warm the campaign spine with four
	// instances per cell on a fixed seed, open the coordinator on a fresh
	// state directory and start its listener. Opening alone takes about a
	// millisecond, most of it one fsync whose latency swings severalfold
	// between runs; the warm-up keeps set-up time a measure of work. The
	// spare coordinators of the repetitions are shut down after the timing.
	var spare []*served
	setup, err := repeatSetup(func() error {
		var err error
		c, err = newCampaign("perfbench-service", []string{"random-tree"}, serviceVariants, size.n, size.instances, size.maxStates, seed)
		if err != nil {
			return err
		}
		discard := campaign.FuncSink(func(campaign.Record) error { return nil })
		if _, err := campaign.Run(c, campaign.Options{Instances: 4, Seed: warmupSeed, Workers: workers}, discard); err != nil {
			return err
		}
		s, err := serve(c, filepath.Join(cfg.dir, fmt.Sprintf("coord-%d", len(spare))), nil)
		if err != nil {
			return err
		}
		if sv != nil {
			spare = append(spare, sv)
		}
		sv = s
		return nil
	})
	for _, s := range spare {
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = setup.Seconds()
	instances := size.instances * len(serviceVariants)
	plan, err := campaign.Plan(c, serviceShard)
	if err != nil {
		return nil, err
	}

	// Measured pass: one worker drains the shards while one watcher follows
	// the live stream; it ends at coordinator Done() with the watcher
	// complete.
	run, err := serviceRound(sv, c, nil)
	if err != nil {
		return nil, err
	}
	res.attempted = instances + run.calls
	res.failed = run.failedCalls
	res.metrics["throughput_per_s"] = float64(instances) / run.wall.Seconds()
	res.metrics["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(cfg.log, "  measured: %d instances in %d shards in %.3f s, %d coordinator calls (%d failed)\n",
		instances, len(plan), run.wall.Seconds(), run.calls, run.failedCalls)

	// Checks: records.jsonl and the watcher's bytes both equal the
	// in-process campaign.Run stream.
	var want bytes.Buffer
	if _, err := campaign.Run(c, campaign.Options{Workers: workers}, campaign.NewJSONLSink(&want)); err != nil {
		return nil, err
	}
	if err := checkServiceRound(sv, run, want.Bytes(), len(plan), instances); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "  check: records.jsonl and the watched stream equal the in-process stream (%d bytes)\n", want.Len())
	sum := sha256.Sum256(want.Bytes())
	if err := checkPinned(cfg, "service", hex.EncodeToString(sum[:])); err != nil {
		return nil, err
	}
	if err := sv.close(); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(sv.dir); err != nil {
		return nil, err
	}
	sv = nil
	if cfg.trace {
		if err := traceService(cfg, res, c, run.wall, want.Bytes(), plan, instances); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// roundResult is what one serve/work/watch round produced.
type roundResult struct {
	wall               time.Duration
	watched            []byte
	worker             coord.WorkerStats
	watch              coord.WatchStats
	calls, failedCalls int
}

// serviceRound runs one worker and one watcher against sv until the
// campaign is merged and the watcher has read all of it. tc, when
// non-nil, traces both clients.
func serviceRound(sv *served, c campaign.Campaign, tc *serviceTrace) (roundResult, error) {
	var out roundResult
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	workerRT := &clientTransport{base: newTransport(), tc: tc}
	watchRT := &clientTransport{base: newTransport(), tc: tc}
	defer workerRT.base.CloseIdleConnections()
	defer watchRT.base.CloseIdleConnections()

	start := time.Now()
	var watchErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var root openSpan
		if tc != nil {
			root = tc.t.begin(0, "bench", "bench.watch")
			watchRT.parent = root.id
		}
		out.watch, watchErr = coord.RunWatch(ctx, coord.WatchConfig{
			URL:    sv.srv.URL,
			Client: &http.Client{Transport: watchRT},
			OnChunk: func(chunk []byte, _ string, _ bool) error {
				out.watched = append(out.watched, chunk...)
				if tc != nil {
					tc.onChunk(chunk)
				}
				return nil
			},
		})
		if tc != nil {
			root.end()
		}
	}()
	var root openSpan
	if tc != nil {
		root = tc.t.begin(0, "bench", "bench.worker")
		workerRT.parent = root.id
	}
	var workErr error
	out.worker, workErr = coord.RunWorker(ctx, coord.WorkerConfig{
		URL:      sv.srv.URL,
		Campaign: c,
		Name:     "perfbench-worker",
		Client:   &http.Client{Transport: workerRT, Timeout: 30 * time.Second},
	})
	if tc != nil {
		root.end()
	}
	if workErr != nil {
		cancel()
	}
	select {
	case <-sv.co.Done():
	case <-ctx.Done():
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.calls = workerRT.calls + watchRT.calls
	out.failedCalls = workerRT.failed + watchRT.failed
	switch {
	case workErr != nil:
		return out, fmt.Errorf("service: worker: %w", workErr)
	case watchErr != nil:
		return out, fmt.Errorf("service: watch: %w", watchErr)
	case !out.watch.Complete:
		return out, fmt.Errorf("service: the watch ended before the stream was complete")
	}
	return out, nil
}

// checkServiceRound compares the coordinator's merged file and the
// watched bytes with the in-process stream.
func checkServiceRound(sv *served, run roundResult, want []byte, shards, instances int) error {
	merged, err := os.ReadFile(sv.co.ResultPath())
	if err != nil {
		return err
	}
	switch {
	case !bytes.Equal(merged, want):
		return fmt.Errorf("service: records.jsonl (%d bytes) differs from the in-process stream (%d bytes)", len(merged), len(want))
	case !bytes.Equal(run.watched, want):
		return fmt.Errorf("service: the watched stream (%d bytes) differs from the in-process stream (%d bytes)", len(run.watched), len(want))
	case run.worker.Shards != shards || run.worker.Records != instances:
		return fmt.Errorf("service: the worker completed %d shards with %d records, want %d with %d", run.worker.Shards, run.worker.Records, shards, instances)
	}
	return nil
}

func newTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}

// clientTransport counts a client's coordinator calls and the failed ones
// (transport errors and non-2xx replies); with a trace it also records
// spans and latencies.
type clientTransport struct {
	base   *http.Transport
	tc     *serviceTrace
	parent int64
	// mu guards the counters: the worker's heartbeat goroutine shares
	// its client.
	mu            sync.Mutex
	calls, failed int
}

func (ct *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var resp *http.Response
	var err error
	if ct.tc == nil {
		resp, err = ct.base.RoundTrip(req)
	} else {
		resp, err = ct.tc.roundTrip(ct, req)
	}
	ct.mu.Lock()
	ct.calls++
	if err != nil || resp.StatusCode < 200 || resp.StatusCode > 299 {
		ct.failed++
	}
	ct.mu.Unlock()
	return resp, err
}

// spanHeader carries a client call's span id to the handler wrapper, so
// the handler's span nests under the call that caused it.
const spanHeader = "Perfbench-Span"

// serviceTrace collects the spans and latencies of a traced round.
type serviceTrace struct {
	t  *tracer
	mu sync.Mutex
	// leaseMs and completeMs are client-side call latencies; shardMs is
	// the gap from a granted lease's reply to its completion request.
	leaseMs, completeMs, shardMs []float64
	idlePolls                    int
	shardStart                   int64
	// completeAt[i] is when the upload of shard i started; lineShard[j]
	// is the shard that holds record line j of the merged stream; lagMs
	// holds, per record line the watcher completed, how long after its
	// shard's upload started that was; lines counts those lines.
	completeAt []time.Time
	lineShard  []int
	lagMs      []float64
	lines      int
}

func newServiceTrace(plan []campaign.ShardRef) *serviceTrace {
	tc := &serviceTrace{t: newTracer(), completeAt: make([]time.Time, len(plan))}
	for i, ref := range plan {
		for range ref.Hi - ref.Lo {
			tc.lineShard = append(tc.lineShard, i)
		}
	}
	return tc
}

func (tc *serviceTrace) roundTrip(ct *clientTransport, req *http.Request) (*http.Response, error) {
	route := strings.TrimPrefix(req.URL.Path, "/v1/")
	sp := tc.t.begin(ct.parent, "coord", "coord.call."+route)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	if route == "complete" {
		if err := tc.markComplete(ct.parent, req); err != nil {
			return nil, err
		}
	}
	resp, err := ct.base.RoundTrip(req)
	if err != nil || route != "lease" {
		d := sp.end()
		if err == nil && route == "complete" {
			tc.mu.Lock()
			tc.completeMs = append(tc.completeMs, millis(d))
			tc.mu.Unlock()
		}
		return resp, err
	}
	// A lease reply is read here, so its latency includes the body and
	// the shard's execution starts from the reply.
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := sp.end()
	if rerr != nil {
		return nil, rerr
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var lease coord.LeaseResponse
	_ = json.Unmarshal(body, &lease) // a malformed reply fails in the worker itself
	tc.mu.Lock()
	tc.leaseMs = append(tc.leaseMs, millis(d))
	if lease.Wait {
		tc.idlePolls++
	}
	if lease.Lease != "" {
		tc.shardStart = tc.t.now()
	}
	tc.mu.Unlock()
	return resp, nil
}

// markComplete notes when shard i's upload starts and closes the
// campaign.shard span that ran since its lease reply.
func (tc *serviceTrace) markComplete(parent int64, req *http.Request) error {
	body, err := req.GetBody()
	if err != nil {
		return err
	}
	var cr coord.CompleteRequest
	if err := json.NewDecoder(body).Decode(&cr); err != nil {
		return err
	}
	now := time.Now()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if cr.Index >= 0 && cr.Index < len(tc.completeAt) && tc.completeAt[cr.Index].IsZero() {
		tc.completeAt[cr.Index] = now
	}
	end := tc.t.now()
	tc.t.add(parent, "campaign", "campaign.shard", tc.shardStart, end)
	tc.shardMs = append(tc.shardMs, float64(end-tc.shardStart)/float64(time.Millisecond))
	return nil
}

// onChunk measures the stream lag of every record line the chunk
// completes: the merged stream holds the shards' records in plan order.
func (tc *serviceTrace) onChunk(chunk []byte) {
	now := time.Now()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, b := range chunk {
		if b != '\n' {
			continue
		}
		if tc.lines < len(tc.lineShard) {
			if at := tc.completeAt[tc.lineShard[tc.lines]]; !at.IsZero() {
				tc.lagMs = append(tc.lagMs, millis(now.Sub(at)))
			}
		}
		tc.lines++
	}
}

// tracedHandler times the coordinator's handler per route, nesting each
// span under the client call that caused it.
type tracedHandler struct {
	h http.Handler
	t *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	route := strings.TrimPrefix(r.URL.Path, "/v1/")
	sp := th.t.begin(parent, "coord", "coord.handler."+route)
	th.h.ServeHTTP(w, r)
	sp.end()
}

// traceService is the traced run: the same round on a fresh coordinator,
// with both clients and the handler traced.
func traceService(cfg config, res *result, c campaign.Campaign, untraced time.Duration, want []byte, plan []campaign.ShardRef, instances int) error {
	tc := newServiceTrace(plan)
	dir := filepath.Join(cfg.dir, "coord-traced")
	sv, err := serve(c, dir, func(h http.Handler) http.Handler { return tracedHandler{h: h, t: tc.t} })
	if err != nil {
		return err
	}
	run, err := serviceRound(sv, c, tc)
	if err == nil {
		err = checkServiceRound(sv, run, want, len(plan), instances)
	}
	if cerr := sv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var disk int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			disk += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	spans := tc.t.snapshot()
	dur, _ := spanTotals(spans)
	m := res.metrics
	m["coord.lease_ms_p50"] = median(tc.leaseMs)
	m["coord.lease_ms_p95"] = tailOrZero(tc.leaseMs, 0.95)
	m["coord.leases"] = float64(len(tc.leaseMs))
	m["coord.complete_ms_p50"] = median(tc.completeMs)
	m["coord.complete_ms_p95"] = tailOrZero(tc.completeMs, 0.95)
	m["coord.completes"] = float64(len(tc.completeMs))
	for _, route := range []string{"lease", "heartbeat", "complete", "release", "status", "records", "stream"} {
		m["coord.handler_s."+route] = dur["coord.handler."+route].Seconds()
	}
	m["coord.idle_polls"] = float64(tc.idlePolls)
	m["campaign.shard_ms_p50"] = median(tc.shardMs)
	m["campaign.shard_ms_p95"] = tailOrZero(tc.shardMs, 0.95)
	m["coord.disk_bytes"] = float64(disk)
	m["coord.stream_polls"] = float64(run.watch.Polls)
	m["coord.stream_bytes"] = float64(run.watch.Bytes)
	m["coord.stream_lag_ms_p50"] = median(tc.lagMs)
	m["coord.stream_lag_ms_p99"] = tailOrZero(tc.lagMs, 0.99)
	m["coord.failed_calls"] = float64(run.failedCalls)
	m["coord.retries"] = float64(run.worker.Retries + run.watch.Retries)
	m["trace.overhead_s"] = (run.wall - untraced).Seconds()
	addSelfTimes(res, spans)
	for _, l := range []string{
		timingLine("coord.lease_ms", "ms", tc.leaseMs, 0.95),
		timingLine("coord.complete_ms", "ms", tc.completeMs, 0.95),
		timingLine("campaign.shard_ms", "ms", tc.shardMs, 0.95),
		timingLine("coord.stream_lag_ms", "ms", tc.lagMs, 0.99),
	} {
		fmt.Fprintln(cfg.log, "  "+l)
	}
	fmt.Fprintf(cfg.log, "  traced round %.3f s vs untraced %.3f s\n", run.wall.Seconds(), untraced.Seconds())
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return tc.t.write(filepath.Join(cfg.dir, "trace.jsonl"))
}
