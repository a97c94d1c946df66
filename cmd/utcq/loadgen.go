package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"utcq/pkg/client"
)

// loadgenConfig drives the load-generator mode: a closed-loop pool of
// workers firing a where/when/range mix at a running utcqd (a node or a
// utcqd -members router — the wire API is identical, so pointing -addr at
// a router load-tests the whole cluster).
type loadgenConfig struct {
	addr     string
	duration time.Duration
	workers  int
	watchers int // live /v1/watch/range subscribers held alongside the query load
	alpha    float64
	batch    int // queries per request; 1 uses the single-query endpoints
	seed     int64
}

// loadgenResult aggregates one worker pool run.
type loadgenResult struct {
	requests  int64
	queries   int64
	failures  int64
	retries   int64           // transient failures recovered by backoff
	giveups   int64           // requests abandoned after the retry budget
	latencies []time.Duration // per request, pooled across workers
	elapsed   time.Duration
}

// retryCounters aggregate the pool's backoff activity: retries is every
// re-sent request, giveups every request abandoned with its budget spent.
type retryCounters struct {
	retries atomic.Int64
	giveups atomic.Int64
}

// Retry policy for transient failures, enforced by pkg/client: a server
// shedding load (429), in transient degradation (5xx) or dropping
// connections gets a bounded number of re-sends with capped exponential
// backoff and jitter, so a blip degrades throughput instead of inflating
// the failure count — and a thundering herd of synchronized workers
// cannot form.
const (
	retryAttempts = 5
	retryBase     = 50 * time.Millisecond
	retryCap      = 2 * time.Second
)

// newLoadgenClient builds the shared API client: the pool's retry policy
// plus an OnRetry hook feeding the backoff counters.
func newLoadgenClient(addr string, rc *retryCounters) *client.Client {
	return client.New(addr, client.Options{
		HTTPClient:    &http.Client{Timeout: 30 * time.Second},
		RetryAttempts: retryAttempts,
		RetryBase:     retryBase,
		RetryCap:      retryCap,
		OnRetry: func(attempt int, err error, delay time.Duration) {
			rc.retries.Add(1)
		},
	})
}

// runLoadgen discovers the served dataset's shape from /v1/stats, then
// drives the query mix for the configured duration and prints a latency
// report.
func runLoadgen(cfg loadgenConfig) error {
	var rc retryCounters
	c := newLoadgenClient(cfg.addr, &rc)
	ctx := context.Background()
	stats, err := fetchStats(ctx, c, cfg.addr)
	if err != nil {
		return fmt.Errorf("fetch /v1/stats (is utcqd running at %s?): %w", cfg.addr, err)
	}
	if stats.Trajectories == 0 {
		return fmt.Errorf("server at %s serves no trajectories", cfg.addr)
	}
	fmt.Printf("target %s: %d trajectories, %d shards (%s), span [%d, %d]\n",
		cfg.addr, stats.Trajectories, stats.Shards, stats.Assignment, stats.TimeMin, stats.TimeMax)
	if stats.Cluster != nil {
		fmt.Printf("cluster: %d nodes, %d partitions, %d holes\n",
			len(stats.Cluster.Nodes), stats.Cluster.Partitions, stats.Cluster.Holes)
		if cfg.watchers > 0 {
			// Routers answer /v1/watch/range with 501 unsupported; holding
			// watchers against one would only log errors.
			fmt.Printf("note: watch subscriptions are not routed; dropping -watchers (subscribe to a member node directly)\n")
			cfg.watchers = 0
		}
	}

	var (
		requests atomic.Int64
		queries  atomic.Int64
		failures atomic.Int64
		mu       sync.Mutex
		lats     []time.Duration
	)
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	mem := newMemSampler(c, cfg.addr)
	defer mem.stop()
	var ws watcherStats
	var wwg sync.WaitGroup
	for w := 0; w < cfg.watchers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			runWatcher(cfg, stats, rand.New(rand.NewSource(cfg.seed+int64(1000+w))), deadline, &ws)
		}(w)
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			var local []time.Duration
			var lastLoc *client.Position
			for time.Now().Before(deadline) {
				t0 := time.Now()
				n, failed, loc, err := fireOne(ctx, c, cfg, stats, rng, lastLoc, &rc)
				lat := time.Since(t0)
				requests.Add(1)
				queries.Add(int64(n))
				switch {
				case err != nil:
					failures.Add(int64(n)) // whole request failed
					if errors.Is(err, client.ErrRetriesExhausted) {
						rc.giveups.Add(1)
					}
				default:
					failures.Add(int64(failed)) // in-band batch failures
					local = append(local, lat)
					if loc != nil {
						lastLoc = loc
					}
				}
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	wwg.Wait()
	res := loadgenResult{
		requests:  requests.Load(),
		queries:   queries.Load(),
		failures:  failures.Load(),
		retries:   rc.retries.Load(),
		giveups:   rc.giveups.Load(),
		latencies: lats,
		elapsed:   time.Since(start),
	}
	printLoadgenReport(res)
	if cfg.watchers > 0 {
		fmt.Printf("watchers: %d subscriptions — %d updates (%d trajectories delivered), %d heartbeats, %d errors\n",
			cfg.watchers, ws.updates.Load(), ws.trajs.Load(), ws.heartbeats.Load(), ws.errors.Load())
	}
	mem.stop()

	after, err := fetchStats(ctx, c, cfg.addr)
	if err != nil {
		fmt.Printf("warning: post-run /v1/stats fetch failed: %v\n", err)
		return nil
	}
	mem.observe(after)
	e := after.Engine
	fmt.Printf("server counters: %d requests, %d failures, %d paths decoded\n",
		after.Requests, after.Failures, e.PathsDecoded)
	fmt.Printf("server memory: peak RSS %s, peak mapped %s, sidecars %d loaded / %d rebuilt\n",
		fmtBytes(mem.peakRSS.Load()), fmtBytes(mem.peakMapped.Load()),
		after.SidecarLoads, after.SidecarRebuilds)
	sx := after.Succinct
	fmt.Printf("succinct index: %d region blocks decoded, %d probes pruned without touch, %d temporal sections forced, %s resident\n",
		sx.RegionBlocksDecoded, sx.RegionPrunedNoTouch, sx.TemporalSectionsForced,
		fmtBytes(sx.SuccinctBytes))
	if after.Ingest != nil {
		fmt.Printf("ingest counters: %d acked, %d applied (%d pending), %d matched / %d dropped, %d compactions, generation %d\n",
			after.Ingest.Acked, after.Ingest.Applied, after.Ingest.Pending,
			after.Ingest.Matched, after.Ingest.Dropped, after.Ingest.Compactions, after.Generation)
	}
	return nil
}

// fireOne issues one request (a single query, or a batch when cfg.batch >
// 1) and returns the number of queries it carried, how many of them the
// server failed in-band, and a visited location to seed future
// when-queries.
func fireOne(ctx context.Context, c *client.Client, cfg loadgenConfig, stats *client.StatsResponse, rng *rand.Rand, lastLoc *client.Position, rc *retryCounters) (n, failed int, loc *client.Position, err error) {
	if cfg.batch > 1 {
		var qs []client.BatchQuery
		for i := 0; i < cfg.batch; i++ {
			qs = append(qs, randomQuery(cfg, stats, rng, lastLoc))
		}
		results, err := c.Batch(ctx, client.BatchRequest{Queries: qs})
		if err != nil {
			return cfg.batch, 0, nil, err
		}
		for _, r := range results {
			if r.Error != "" {
				failed++
			}
		}
		return cfg.batch, failed, firstLocation(results), nil
	}
	q := randomQuery(cfg, stats, rng, lastLoc)
	switch q.Kind {
	case "where":
		results, err := c.Where(ctx, *q.Where)
		if err != nil {
			return 1, 0, nil, err
		}
		if len(results) > 0 {
			r := results[rng.Intn(len(results))]
			return 1, 0, &client.Position{Edge: r.Edge, NDist: r.NDist}, nil
		}
		return 1, 0, nil, nil
	case "when":
		_, err := c.When(ctx, *q.When)
		return 1, 0, nil, err
	default:
		_, err := c.Range(ctx, *q.Range)
		return 1, 0, nil, err
	}
}

// watcherStats aggregates the watcher pool: updates is every non-heartbeat
// watch response (a generation the subscriber had not seen), trajs the
// trajectories those updates delivered, heartbeats the empty poll windows.
type watcherStats struct {
	updates    atomic.Int64
	trajs      atomic.Int64
	heartbeats atomic.Int64
	errors     atomic.Int64
}

// runWatcher holds one live /v1/watch/range subscription until the
// deadline: an initial full-set exchange, then incremental long-polls
// resumed with the last update's {gen, cursor} — client.Watcher keeps
// that cursor.  Transient failures (a server shedding load or restarting
// mid-run) are retried inside the client and, past its budget, surface
// here where the loop resubscribes from the same cursor — the watch
// protocol is stateless server-side, so nothing is lost.
func runWatcher(cfg loadgenConfig, stats *client.StatsResponse, rng *rand.Rand, deadline time.Time, ws *watcherStats) {
	// One fixed district per watcher, 20-60% of each axis.
	b := stats.Bounds
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	fw, fh := 0.2+rng.Float64()*0.4, 0.2+rng.Float64()*0.4
	x := b.MinX + rng.Float64()*(1-fw)*w
	y := b.MinY + rng.Float64()*(1-fh)*h
	span := stats.TimeMax - stats.TimeMin
	if span < 1 {
		span = 1
	}
	t := stats.TimeMin + rng.Int63n(span)

	// Watchers get their own client: short poll windows keep the loop
	// responsive to the run deadline, and the transport timeout sits above
	// the window so held polls are not cut off.
	c := client.New(cfg.addr, client.Options{
		HTTPClient:    &http.Client{Timeout: 10 * time.Second},
		RetryAttempts: retryAttempts,
		RetryBase:     retryBase,
		RetryCap:      retryCap,
	})
	watcher := c.Watch(client.WatchRequest{
		Rect:        client.Rect{MinX: x, MinY: y, MaxX: x + fw*w, MaxY: y + fh*h},
		T:           t,
		Alpha:       cfg.alpha,
		PollSeconds: 2,
	})
	var lastGen uint64
	subscribed := false
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		upd, err := watcher.Next(ctx)
		cancel()
		if err != nil {
			if !time.Now().Before(deadline) {
				return // run deadline reached mid-poll
			}
			ws.errors.Add(1)
			var ae *client.APIError
			if errors.As(err, &ae) && !ae.Temporary() {
				return // the subscription itself is wrong; retrying reproduces it
			}
			time.Sleep(retryBase + time.Duration(rng.Int63n(int64(retryBase))))
			continue
		}
		if !subscribed || upd.Gen > lastGen {
			ws.updates.Add(1)
			ws.trajs.Add(int64(len(upd.Added)))
		} else {
			ws.heartbeats.Add(1)
		}
		lastGen, subscribed = upd.Gen, true
	}
}

// randomQuery synthesizes one query against the served dataset: where and
// range uniformly over the time span and network bounds, when at the last
// location a where-query returned (falling back to where until one exists).
func randomQuery(cfg loadgenConfig, stats *client.StatsResponse, rng *rand.Rand, lastLoc *client.Position) client.BatchQuery {
	span := stats.TimeMax - stats.TimeMin
	if span < 1 {
		span = 1
	}
	t := stats.TimeMin + rng.Int63n(span)
	switch k := rng.Float64(); {
	case k < 0.5: // where
		return client.BatchQuery{Kind: "where", Where: &client.WhereRequest{
			Traj: rng.Intn(stats.Trajectories), T: t, Alpha: cfg.alpha,
		}}
	case k < 0.75 && lastLoc != nil: // when
		return client.BatchQuery{Kind: "when", When: &client.WhenRequest{
			Traj: rng.Intn(stats.Trajectories), Loc: *lastLoc, Alpha: cfg.alpha,
		}}
	case k < 0.75: // no visited location yet: fall back to where
		return client.BatchQuery{Kind: "where", Where: &client.WhereRequest{
			Traj: rng.Intn(stats.Trajectories), T: t, Alpha: cfg.alpha,
		}}
	default: // range over 5-40% of each axis
		b := stats.Bounds
		w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
		fw, fh := 0.05+rng.Float64()*0.35, 0.05+rng.Float64()*0.35
		x := b.MinX + rng.Float64()*(1-fw)*w
		y := b.MinY + rng.Float64()*(1-fh)*h
		return client.BatchQuery{Kind: "range", Range: &client.RangeRequest{
			Rect: client.Rect{MinX: x, MinY: y, MaxX: x + fw*w, MaxY: y + fh*h},
			T:    t, Alpha: cfg.alpha,
		}}
	}
}

// memSampler polls /v1/stats in the background during a run and keeps the
// peak RSS and mapped-bytes gauges, so the report shows the memory cost
// of serving the workload (with mmap most of it is evictable page cache).
type memSampler struct {
	peakRSS    atomic.Int64
	peakMapped atomic.Int64
	done       chan struct{}
	once       sync.Once
}

func newMemSampler(c *client.Client, addr string) *memSampler {
	ms := &memSampler{done: make(chan struct{})}
	go func() {
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ms.done:
				return
			case <-tick.C:
				if st, err := fetchStats(context.Background(), c, addr); err == nil {
					ms.observe(st)
				}
			}
		}
	}()
	return ms
}

func (ms *memSampler) observe(st *client.StatsResponse) {
	if st.RSSBytes > ms.peakRSS.Load() {
		ms.peakRSS.Store(st.RSSBytes)
	}
	if st.MappedBytes > ms.peakMapped.Load() {
		ms.peakMapped.Store(st.MappedBytes)
	}
}

func (ms *memSampler) stop() { ms.once.Do(func() { close(ms.done) }) }

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func firstLocation(results []client.BatchResult) *client.Position {
	for _, r := range results {
		if len(r.Where) > 0 {
			return &client.Position{Edge: r.Where[0].Edge, NDist: r.Where[0].NDist}
		}
	}
	return nil
}

// fetchStats discovers the served dataset's shape.  Every failure mode is
// surfaced explicitly — a server-side error (whose envelope code the
// client decodes), a malformed payload, or a degenerate shape — because
// silently proceeding would synthesize queries from zero-valued bounds
// and report nonsense throughput against them.
func fetchStats(ctx context.Context, c *client.Client, addr string) (*client.StatsResponse, error) {
	sr, err := c.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s/v1/stats: %w", addr, err)
	}
	// <= also rejects the all-zero bounds a non-utcqd endpoint's unrelated
	// JSON decodes to (a real network always has positive extent).
	if sr.Bounds.MaxX <= sr.Bounds.MinX || sr.Bounds.MaxY <= sr.Bounds.MinY {
		return nil, fmt.Errorf("%s/v1/stats: degenerate network bounds %+v", addr, sr.Bounds)
	}
	return &sr, nil
}

func printLoadgenReport(res loadgenResult) {
	secs := res.elapsed.Seconds()
	fmt.Printf("done: %d requests (%d queries) in %.1fs — %.0f req/s, %.0f queries/s, %d failures\n",
		res.requests, res.queries, secs,
		float64(res.requests)/secs, float64(res.queries)/secs, res.failures)
	if res.retries > 0 || res.giveups > 0 {
		fmt.Printf("backoff: %d retries, %d requests given up after %d attempts\n",
			res.retries, res.giveups, retryAttempts)
	}
	if len(res.latencies) == 0 {
		return
	}
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(res.latencies)-1))
		return res.latencies[i]
	}
	fmt.Printf("latency: p50 %v  p90 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), res.latencies[len(res.latencies)-1].Round(time.Microsecond))
}
