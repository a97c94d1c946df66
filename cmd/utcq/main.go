// Command utcq is a small CLI around the library: it generates a synthetic
// dataset, compresses it with UTCQ and the TED baseline, reports the
// compression statistics, answers a few sample queries, and load-tests a
// running utcqd server.
//
// Usage:
//
//	utcq -profile CD -n 500 stats      # dataset + network statistics
//	utcq -profile HZ -n 300 compress   # UTCQ vs TED compression report
//	utcq -profile DK -n 200 query      # sample where/when/range queries
//	utcq -addr http://localhost:8723 -duration 10s loadgen
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"utcq"
	"utcq/internal/gen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("utcq: ")
	profile := flag.String("profile", "CD", "dataset profile: DK, CD or HZ")
	n := flag.Int("n", 300, "number of uncertain trajectories")
	seed := flag.Int64("seed", 1, "generation seed")
	pivots := flag.Int("pivots", 1, "number of pivots for reference selection")
	parallel := flag.Int("parallel", 0, "compression/index worker count (0 = one per CPU, 1 = serial)")
	addr := flag.String("addr", "http://localhost:8723", "utcqd base URL (loadgen)")
	duration := flag.Duration("duration", 10*time.Second, "load-generation run time (loadgen)")
	workers := flag.Int("workers", 8, "concurrent load-generation workers (loadgen)")
	watchers := flag.Int("watchers", 0, "live /v1/watch/range subscribers held alongside the query load (loadgen)")
	alpha := flag.Float64("alpha", 0.2, "probability threshold for generated queries (loadgen)")
	batch := flag.Int("batch", 1, "queries per request; >1 uses /v1/batch (loadgen)")
	flag.Parse()

	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "compress"
	}

	if cmd == "loadgen" {
		err := runLoadgen(loadgenConfig{
			addr:     *addr,
			duration: *duration,
			workers:  *workers,
			watchers: *watchers,
			alpha:    *alpha,
			batch:    *batch,
			seed:     *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	p, err := gen.ProfileByName(*profile)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := utcq.BuildDataset(p, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}

	switch cmd {
	case "stats":
		s := ds.Stats()
		ns := ds.NetStats()
		fmt.Printf("dataset %s: %d trajectories, %.1f instances avg (%d-%d), %.1f edges avg, Ts=%ds\n",
			s.Name, s.NumTrajectories, s.InstAvg, s.InstMin, s.InstMax, s.EdgesAvg, s.Ts)
		fmt.Printf("raw NCUT size: %.2f MB\n", float64(s.RawBits.Total())/8/1e6)
		fmt.Printf("network: %d vertices, %d segments, avg out-degree %.3f\n",
			ns.Vertices, ns.Segments, ns.AvgOutDegree)

	case "compress":
		opts := utcq.DefaultOptions(p.Ts)
		opts.NumPivots = *pivots
		opts.Parallelism = *parallel
		arch, err := utcq.Compress(ds.Graph, ds.Trajectories, opts)
		if err != nil {
			log.Fatal(err)
		}
		ta, err := utcq.CompressTED(ds.Graph, ds.Trajectories, utcq.DefaultTEDOptions(p.Ts))
		if err != nil {
			log.Fatal(err)
		}
		u, t := arch.Stats, ta.Stats
		fmt.Printf("%-5s %8s %8s %8s %8s %8s %8s\n", "algo", "total", "T", "E", "D", "T'", "p")
		fmt.Printf("%-5s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			"UTCQ", u.TotalRatio(), u.RatioT(), u.RatioE(), u.RatioD(), u.RatioTF(), u.RatioP())
		fmt.Printf("%-5s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			"TED", t.TotalRatio(), t.RatioT(), t.RatioE(), t.RatioD(), t.RatioTF(), t.RatioP())
		fmt.Printf("UTCQ: %d instances, %d references\n", u.NumInstances, u.NumReferences)

	case "query":
		opts := utcq.DefaultOptions(p.Ts)
		opts.Parallelism = *parallel
		arch, err := utcq.Compress(ds.Graph, ds.Trajectories, opts)
		if err != nil {
			log.Fatal(err)
		}
		iopts := utcq.DefaultIndexOptions()
		iopts.Parallelism = *parallel
		idx, err := utcq.BuildIndex(arch, iopts)
		if err != nil {
			log.Fatal(err)
		}
		eng := utcq.NewEngine(arch, idx)
		u := ds.Trajectories[0]
		tq := (u.T[0] + u.T[len(u.T)-1]) / 2
		res, err := eng.Where(0, tq, 0.2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("where(Tu0, %d, 0.2): %d locations\n", tq, len(res))
		for _, r := range res {
			x, y := ds.Graph.Coords(r.Loc)
			fmt.Printf("  instance %d (p=%.3f): edge %d @ %.1fm (%.0f, %.0f)\n",
				r.Inst, r.P, r.Loc.Edge, r.Loc.NDist, x, y)
		}
		if len(res) > 0 {
			wr, err := eng.When(0, res[0].Loc, 0.2)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("when(Tu0, that location, 0.2): %d passages\n", len(wr))
			for _, r := range wr {
				fmt.Printf("  instance %d (p=%.3f): t=%d\n", r.Inst, r.P, r.T)
			}
		}

	default:
		fmt.Fprintf(os.Stderr, "unknown command %q (want stats, compress, query or loadgen)\n", cmd)
		os.Exit(2)
	}
}
