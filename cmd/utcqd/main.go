// Command utcqd serves probabilistic trajectory queries over HTTP: it
// builds (or opens) a sharded compressed store and exposes the where /
// when / range queries, a batched endpoint, /healthz and /v1/stats.
//
// A synthetic dataset is generated from the profile flags, compressed into
// -shards archives and served; with -dir the store round-trips through
// disk: the first run builds and saves it, later runs open it lazily (only
// the manifest is read until a query touches a shard).
//
// With -wal the server also accepts live traffic: POST /v1/ingest
// acknowledges raw trajectories into an append-only, CRC-framed
// write-ahead log, a background worker map-matches and compresses them
// into delta shards, and accumulated deltas fold into base shards — via
// POST /v1/compact or automatically every -compact-after delta shards.
// After a crash, acknowledged-but-unapplied records replay from the WAL.
//
// Cluster modes (see docs/ARCHITECTURE.md §10): -cluster-node/-cluster-nodes
// filter the built dataset down to the trajectories a placement assigns this
// member, so N members behind a router jointly serve the full dataset;
// -members runs the process as that router, and -follow as a replication
// follower that bootstraps a snapshot from a leader and replays its WAL
// (reads only — /v1/ingest answers 503 not_leader).
//
// A router holds no data and no durable state: it rebuilds the global id
// maps from member stats at startup (retrying for up to -sync-timeout while
// members come up), routes point queries to the owning member,
// scatter-gathers ranges, and splits ingest batches by placement.  Clients
// speak to it exactly as to a single node (same endpoints, bodies and error
// envelope); /v1/stats adds a "cluster" section with per-node detail.
//
// Usage:
//
//	utcqd -addr :8723 -profile CD -n 500 -shards 4
//	utcqd -addr :8723 -profile CD -n 500 -shards 4 -dir /var/lib/utcq/cd500
//	utcqd -addr :8723 -profile CD -dir /var/lib/utcq/cd500 -wal /var/lib/utcq/cd500/ingest.wal
//	utcqd -addr :8724 -profile CD -n 500 -cluster-node 1 -cluster-nodes 3
//	utcqd -addr :8800 -members http://localhost:8801,http://localhost:8802,http://localhost:8803
//	utcqd -addr :8725 -profile CD -dir /var/lib/utcq/replica -follow http://leader:8723
//
// Endpoints (see README "Serving" for request/response bodies):
//
//	POST /v1/where   POST /v1/when   POST /v1/range   POST /v1/batch
//	POST /v1/ingest  POST /v1/compact
//	GET  /healthz    GET  /v1/stats
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for up to -drain, then drains pending ingestion and closes the
// WAL.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"utcq/internal/cluster"
	"utcq/internal/gen"
	"utcq/internal/ingest"
	"utcq/internal/roadnet"
	"utcq/internal/server"
	"utcq/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("utcqd: ")
	addr := flag.String("addr", ":8723", "listen address")
	profile := flag.String("profile", "CD", "dataset profile: DK, CD or HZ")
	n := flag.Int("n", 300, "number of uncertain trajectories")
	seed := flag.Int64("seed", 1, "generation seed")
	shards := flag.Int("shards", 4, "number of store shards")
	assignFlag := flag.String("assign", "hash", "shard assignment: hash or spatial")
	dir := flag.String("dir", "", "store directory (open if it holds a manifest, else build and save)")
	parallel := flag.Int("parallel", 0, "build/scatter worker count (0 = one per CPU)")
	maxBatch := flag.Int("max-batch", 0, "maximum queries per /v1/batch request (0 = default)")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "node mode: per-request query deadline; requests past it stop at the next shard and answer 504 (<0 disables; a -members router always uses the 30s default)")
	maxPending := flag.Int("max-pending", 0, "ingest admission limit: pending WAL records past which /v1/ingest answers 429 (0 = default 4096, <0 disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
	wal := flag.String("wal", "", "write-ahead log path: enables live ingestion via POST /v1/ingest")
	ingestBatch := flag.Int("ingest-batch", 32, "max WAL records per delta shard")
	compactAfter := flag.Int("compact-after", 8, "fold delta shards into a base shard past this count (0 = default 8, <0 disables)")
	flushEvery := flag.Duration("flush-every", time.Second, "background drain interval for partial ingest batches")
	simplifyEps := flag.Float64("simplify-eps", 0, "online simplification SED budget in map units applied at ingest admission (0 disables)")
	follow := flag.String("follow", "", "leader base URL: run as a replication follower of that utcqd (requires -dir; clients get reads only)")
	clusterNode := flag.Int("cluster-node", -1, "this member's index in a cluster placement: keep only the trajectories the placement assigns it (requires -cluster-nodes)")
	clusterNodes := flag.Int("cluster-nodes", 0, "total cluster member count for -cluster-node filtering (0 = not a cluster member)")
	clusterPartitions := flag.Int("cluster-partitions", cluster.DefaultPartitions, "cluster placement partitions (members and router must agree)")
	members := flag.String("members", "", "comma-separated member base URLs in placement order: run as the cluster router over them")
	syncTimeout := flag.Duration("sync-timeout", 60*time.Second, "router: how long to wait for every member to come up at startup")
	refresh := flag.Duration("refresh", 2*time.Second, "router: member stats refresh cadence (bounds pruning, quarantine healing)")
	flag.Parse()

	if *members != "" {
		route(*members, *addr, *clusterPartitions, *parallel, *maxBatch, *syncTimeout, *refresh, *drain)
		return
	}

	p, err := gen.ProfileByName(*profile)
	if err != nil {
		log.Fatal(err)
	}
	assignment, err := store.ParseAssignment(*assignFlag)
	if err != nil {
		log.Fatal(err)
	}
	if *follow != "" {
		if *dir == "" {
			log.Fatal("-follow requires -dir (the follower's snapshot directory)")
		}
		g := roadnetFor(p)
		log.Printf("following %s into %s (profile %s network)", *follow, *dir, p.Name)
		fol, err := cluster.StartFollower(*follow, cluster.FollowerOptions{
			Dir:       *dir,
			Graph:     g,
			EdgeIndex: roadnet.NewEdgeIndex(g, 4*p.Network.Spacing),
			Ingest: ingest.Options{
				BatchSize:    *ingestBatch,
				FlushEvery:   *flushEvery,
				Match:        p.Match,
				Parallelism:  *parallel,
				CompactEvery: *compactAfter,
			},
			Open: store.OpenOptions{Parallelism: *parallel},
		})
		if err != nil {
			log.Fatal(err)
		}
		srv := server.New(fol.Store(), server.Options{
			MaxBatch:         *maxBatch,
			BatchParallelism: *parallel,
			QueryTimeout:     *queryTimeout,
			Ingester:         fol.Ingester(),
			Follower:         true,
		})
		serveUntilSignal(srv, *addr, *drain, func() {
			if err := fol.Close(); err != nil {
				log.Printf("warning: follower close: %v", err)
			}
		})
		return
	}

	var st *store.Store
	var g *roadnet.Graph
	if *dir != "" && manifestExists(*dir) {
		// The graph regenerates deterministically from the profile; the
		// compressed shards come from disk, lazily.
		log.Printf("opening store %s (profile %s network)", *dir, p.Name)
		g = roadnetFor(p)
		// OpenOptions.Core stays zero: delta-shard compression parameters
		// derive from the persisted shard archives, so ingestion matches
		// however the store was originally built (which may differ from
		// the profile defaults).
		st, err = store.Open(*dir, g, store.OpenOptions{Parallelism: *parallel})
		if err != nil {
			log.Fatal(err)
		}
	} else {
		log.Printf("building %s dataset: %d trajectories, %d shards (%s)", p.Name, *n, *shards, assignment)
		ds, err := gen.Build(p, *n, *seed)
		if err != nil {
			log.Fatal(err)
		}
		g = ds.Graph
		if *clusterNodes > 0 {
			// Cluster member: keep only the trajectories the shared placement
			// assigns this node.  Global id order is preserved, so a member's
			// local id k is the k-th global id it owns — exactly the map the
			// router (utcqd -members) rebuilds at sync.
			if *clusterNode < 0 || *clusterNode >= *clusterNodes {
				log.Fatalf("-cluster-node %d out of range [0, %d)", *clusterNode, *clusterNodes)
			}
			place := cluster.NewPlacement(cluster.NodeNames(*clusterNodes), *clusterPartitions, 0)
			kept := ds.Trajectories[:0]
			for gid, tu := range ds.Trajectories {
				if place.Owner(gid) == *clusterNode {
					kept = append(kept, tu)
				}
			}
			log.Printf("cluster member %d of %d: placement keeps %d of %d trajectories", *clusterNode, *clusterNodes, len(kept), len(ds.Trajectories))
			ds.Trajectories = kept
		}
		opts := store.DefaultOptions(p.Ts)
		opts.NumShards = *shards
		opts.Assignment = assignment
		opts.Parallelism = *parallel
		st, err = store.Build(ds.Graph, ds.Trajectories, opts)
		if err != nil {
			log.Fatal(err)
		}
		if *dir != "" {
			if err := st.Save(*dir); err != nil {
				log.Fatal(err)
			}
			log.Printf("saved store to %s", *dir)
		}
	}

	var ing *ingest.Ingester
	if *wal != "" {
		eix := roadnet.NewEdgeIndex(g, 4*p.Network.Spacing)
		ing, err = ingest.New(st, eix, *wal, ingest.Options{
			BatchSize:    *ingestBatch,
			FlushEvery:   *flushEvery,
			Match:        p.Match,
			Parallelism:  *parallel,
			CompactEvery: *compactAfter,
			SimplifyEps:  *simplifyEps,
		})
		if err != nil {
			log.Fatal(err)
		}
		if pending := ing.Pending(); pending > 0 {
			log.Printf("WAL replay: %d acknowledged records pending re-ingestion", pending)
		}
		ing.Start()
		log.Printf("ingestion enabled: WAL %s, batch %d, compact after %d delta shards, simplify eps %g", *wal, *ingestBatch, *compactAfter, *simplifyEps)
	}

	lo, hi := st.TimeSpan()
	log.Printf("serving %d trajectories in %d shards (generation %d), time span [%d, %d]",
		st.NumTrajectories(), st.NumShards(), st.Generation(), lo, hi)

	srv := server.New(st, server.Options{
		MaxBatch:         *maxBatch,
		BatchParallelism: *parallel,
		QueryTimeout:     *queryTimeout,
		MaxPending:       *maxPending,
		Ingester:         ing,
	})
	serveUntilSignal(srv, *addr, *drain, func() {
		if ing != nil {
			// A failed final drain is reported, not fatal: the records it
			// could not apply are still durable in the WAL and replay on
			// the next start, so exiting 0 with a warning beats turning a
			// clean shutdown into a crash.
			if err := ing.Close(); err != nil {
				log.Printf("warning: ingest drain: %v (acknowledged records remain in the WAL and replay on restart)", err)
			} else {
				log.Printf("ingestion drained")
			}
		}
	})
}

// route runs the cluster router over the comma-separated member URLs.
func route(memberURLs, addr string, partitions, parallel, maxBatch int, syncTimeout, refresh, drain time.Duration) {
	var ms []cluster.Member
	for i, u := range strings.Split(memberURLs, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		ms = append(ms, cluster.Member{Name: cluster.NodeNames(i + 1)[i], URL: u})
	}
	if len(ms) == 0 {
		log.Fatalf("-members %q lists no base URLs", memberURLs)
	}
	rt := cluster.NewRouter(ms, cluster.RouterOptions{
		Partitions:   partitions,
		Parallelism:  parallel,
		MaxBatch:     maxBatch,
		RefreshEvery: refresh,
	})
	// Members may still be building their datasets; retry the sync until
	// the budget runs out so "start everything at once" just works.
	ctx, cancel := context.WithTimeout(context.Background(), syncTimeout)
	for {
		err := rt.Sync(ctx)
		if err == nil {
			break
		}
		select {
		case <-ctx.Done():
			log.Fatalf("cluster sync: %v", err)
		case <-time.After(time.Second):
		}
	}
	cancel()
	log.Printf("synced %d members, %d trajectories, %d partitions", len(ms), rt.NumTrajectories(), partitions)
	rt.Start()
	serveUntilSignal(rt.Server, addr, drain, rt.Close)
}

// serveUntilSignal runs the server until SIGINT/SIGTERM, drains in-flight
// requests within the budget, then runs cleanup (WAL drain, follower
// shutdown, router refresher stop).
func serveUntilSignal(srv *server.Server, addr string, drain time.Duration, cleanup func()) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", addr)
		done <- srv.ListenAndServe(addr)
	}()

	select {
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Printf("shutting down (drain %s)", drain)
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			log.Fatal(err)
		}
		cleanup()
		log.Printf("bye")
	}
}

// manifestExists reports whether dir already holds a store manifest.
func manifestExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, store.ManifestName))
	return err == nil
}

// roadnetFor regenerates the profile's deterministic road network without
// synthesizing trajectories (opening a store needs only the graph).
func roadnetFor(p gen.Profile) *roadnet.Graph {
	return roadnet.Generate(p.Network)
}
