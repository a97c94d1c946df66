// Shardserve: the full serving pipeline in one file.  Build a dataset,
// compress it into a sharded store, round-trip the store through disk with
// lazy shard opening, verify the store matches a single-archive engine,
// then put an HTTP query service in front of it and talk to it over the
// wire — single queries and a batch — before shutting down gracefully.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"utcq"
	"utcq/pkg/client"
)

func main() {
	log.SetFlags(0)

	// 1. A small synthetic dataset (Chengdu-like profile).
	ds, err := utcq.BuildDataset(utcq.ProfileCD(), 80, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d trajectories\n", len(ds.Trajectories))

	// 2. Compress into a 4-shard store.  Shards are independent archives:
	// they build in parallel and each carries its own StIU index and query
	// engine.
	opts := utcq.DefaultStoreOptions(ds.Profile.Ts)
	opts.NumShards = 4
	opts.Assignment = utcq.AssignSpatial
	st, err := utcq.BuildStore(ds.Graph, ds.Trajectories, opts)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Round-trip through disk.  Open reads only the manifest; shards
	// load on first touch.
	dir, err := os.MkdirTemp("", "utcq-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := st.Save(dir); err != nil {
		log.Fatal(err)
	}
	st, err = utcq.OpenStore(dir, ds.Graph, utcq.OpenStoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store: %d shards on disk at %s, %d resident\n",
		st.NumShards(), dir, st.Stats().OpenShards)

	// 4. The store answers exactly like a single-archive engine.
	arch, err := utcq.Compress(ds.Graph, ds.Trajectories, utcq.DefaultOptions(ds.Profile.Ts))
	if err != nil {
		log.Fatal(err)
	}
	idx, err := utcq.BuildIndex(arch, utcq.DefaultIndexOptions())
	if err != nil {
		log.Fatal(err)
	}
	eng := utcq.NewEngine(arch, idx)
	T := ds.Trajectories[0].T
	tq := (T[0] + T[len(T)-1]) / 2
	fromEngine, err := eng.Where(0, tq, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	fromStore, err := st.Where(0, tq, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("where(0, %d, 0.2): engine %d results, store %d results (shard %d now resident)\n",
		tq, len(fromEngine), len(fromStore), st.ShardOf(0))

	// 5. Serve it.  utcqd wraps exactly this; here the server runs
	// in-process on a loopback listener.
	srv := utcq.NewQueryServer(st, utcq.QueryServerOptions{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := srv.Serve(l); err != nil {
			log.Fatal(err)
		}
	}()
	base := "http://" + l.Addr().String()

	// A single where query over HTTP...
	var whereResp struct {
		Results []client.WhereResult `json:"results"`
	}
	postJSON(base+"/v1/where", client.WhereRequest{Traj: 0, T: tq, Alpha: 0.2}, &whereResp)
	fmt.Printf("HTTP where: %d results", len(whereResp.Results))
	if len(whereResp.Results) > 0 {
		r := whereResp.Results[0]
		fmt.Printf(" — instance %d (p=%.3f) at (%.0f, %.0f)", r.Inst, r.P, r.X, r.Y)
	}
	fmt.Println()

	// ...and a batch mixing all three query kinds.
	b := st.Bounds()
	batch := client.BatchRequest{Queries: []client.BatchQuery{
		{Kind: "where", Where: &client.WhereRequest{Traj: 1, T: tq, Alpha: 0.2}},
		{Kind: "range", Range: &client.RangeRequest{
			Rect: client.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY},
			T:    tq, Alpha: 0.2,
		}},
	}}
	var batchResp struct {
		Results []client.BatchResult `json:"results"`
	}
	postJSON(base+"/v1/batch", batch, &batchResp)
	fmt.Printf("HTTP batch: %d results, range matched %d trajectories\n",
		len(batchResp.Results), len(batchResp.Results[1].Trajs))

	// 6. /v1/stats shows the aggregated engine counters, then drain and stop.
	var stats client.StatsResponse
	getJSON(base+"/v1/stats", &stats)
	fmt.Printf("stats: %d/%d shards open, %d requests, %d paths decoded\n",
		stats.OpenShards, stats.Shards, stats.Requests, stats.Engine.PathsDecoded)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained and stopped")
}

func postJSON(url string, body, out any) {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
