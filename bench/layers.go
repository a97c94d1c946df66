package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"utcq/internal/bitio"
	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/mmapio"
	"utcq/internal/stiu"
	"utcq/internal/store"
)

// Trajectories per profile behind core.ratio_dk / _cd / _hz when the
// workload's own corpora do not cover a profile.
const ratioProbeTrajs = 400

// layerProbes measures what no ladder reaches: each layer's own kernel,
// called from here on the workload's corpus.  Timings are medians of
// probePasses calls.
func layerProbes(rc *runCtx, res *result, corpora ...*corpus) error {
	const probePasses = 5
	res.set("host.calib_ns", hostCalibNs())
	res.check(bitioProbe(res))

	var genMs, compressUs, compressAllocs, decodeUs, loadMs, indexUs, sidecarMs float64
	var buildMs, saveMs, openMs, firstUs, matchUs float64
	var indexBytes, succinctBytes int64
	var stats core.CompStats
	var matched, tried, instances, n int
	byProfile := map[string]float64{}
	for _, c := range corpora {
		n += len(c.trajs)
		genMs += float64(c.genDur) / float64(time.Millisecond)
		matched += len(c.matched)
		tried += c.rawsTried
		matchUs += float64(c.matchDur) / float64(time.Microsecond)
		for _, u := range c.matched {
			instances += len(u.Instances)
		}

		opts := core.DefaultOptions(c.profile.Ts)
		comp, err := core.NewCompressor(c.g, opts)
		if err != nil {
			return err
		}
		var arch *core.Archive
		var saved bytes.Buffer
		var ix *stiu.Index
		var sidecar []byte
		var ct, dt, lt, it, st []time.Duration
		for i := 0; i < probePasses; i++ {
			m0 := mallocs()
			t0 := time.Now()
			if arch, err = comp.Compress(c.trajs); err != nil {
				return err
			}
			ct = append(ct, time.Since(t0))
			if i == 0 {
				compressAllocs += float64(mallocs() - m0)
			}
			t0 = time.Now()
			if _, err := arch.DecodeAll(); err != nil {
				return err
			}
			dt = append(dt, time.Since(t0))
			saved.Reset()
			if err := arch.Save(&saved); err != nil {
				return err
			}
			t0 = time.Now()
			if _, err := core.LoadBytes(saved.Bytes(), c.g); err != nil {
				return err
			}
			lt = append(lt, time.Since(t0))
			t0 = time.Now()
			if ix, err = stiu.Build(arch, stiu.DefaultOptions()); err != nil {
				return err
			}
			it = append(it, time.Since(t0))
			if sidecar, err = ix.EncodeSidecar(int64(saved.Len())); err != nil {
				return err
			}
			t0 = time.Now()
			dec, err := stiu.DecodeSidecar(sidecar, c.g, len(arch.Trajs), int64(saved.Len()), stiu.DefaultOptions())
			if err != nil {
				return err
			}
			st = append(st, time.Since(t0))
			if i == 0 {
				succinctBytes += dec.Stats().SuccinctBytes
			}
		}
		compressUs += medianDur(ct, time.Microsecond)
		decodeUs += medianDur(dt, time.Microsecond)
		loadMs += medianDur(lt, time.Millisecond)
		indexUs += medianDur(it, time.Microsecond)
		sidecarMs += medianDur(st, time.Millisecond)
		indexBytes += int64(len(sidecar))
		stats.Add(arch.Stats)
		byProfile[c.profile.Name] = arch.Stats.TotalRatio()

		// The store: build, save, open, first answer.
		var bt, svt, ot, ft []time.Duration
		for i := 0; i < probePasses; i++ {
			dir := filepath.Join(rc.dir, fmt.Sprintf("probe-%s-%d", c.profile.Name, i))
			t0 := time.Now()
			built, err := store.Build(c.g, c.trajs, storeOptions(c))
			if err != nil {
				return err
			}
			bt = append(bt, time.Since(t0))
			t0 = time.Now()
			if err := built.Save(dir); err != nil {
				return err
			}
			svt = append(svt, time.Since(t0))
			t0 = time.Now()
			opened, err := store.Open(dir, c.g, store.OpenOptions{})
			if err != nil {
				return err
			}
			ot = append(ot, time.Since(t0))
			t0 = time.Now()
			if _, err := opened.Where(0, timeIn(c.trajs[0], 0.5), 0.1); err != nil {
				return err
			}
			ft = append(ft, time.Since(t0))
		}
		buildMs += medianDur(bt, time.Millisecond)
		saveMs += medianDur(svt, time.Millisecond)
		openMs += medianDur(ot, time.Millisecond)
		firstUs += medianDur(ft, time.Microsecond)
	}
	fn := float64(n)
	res.set("gen.build_ms_per_ktraj", genMs/fn*1000)
	res.set("core.compress_us_per_traj", compressUs/fn)
	res.set("core.compress_allocs_per_traj", compressAllocs/fn)
	res.set("core.decode_us_per_traj", decodeUs/fn)
	res.set("core.load_bytes_ms", loadMs)
	res.set("core.ratio_t", stats.RatioT())
	res.set("core.ratio_e", stats.RatioE())
	res.set("core.ratio_d", stats.RatioD())
	res.set("core.ratio_tf", stats.RatioTF())
	res.set("core.ratio_p", stats.RatioP())
	res.set("stiu.build_us_per_traj", indexUs/fn)
	res.set("stiu.sidecar_decode_ms", sidecarMs)
	res.set("stiu.index_bytes_per_traj", float64(indexBytes)/fn)
	res.set("stiu.succinct_bytes_per_traj", float64(succinctBytes)/fn)
	res.set("store.build_ms_per_ktraj", buildMs/fn*1000)
	res.set("store.save_ms", saveMs)
	res.set("store.open_ms", openMs)
	res.set("store.first_query_us", firstUs/float64(len(corpora)))
	res.set("mapmatch.match_us_per_traj", matchUs/float64(max(tried, 1)))
	res.set("mapmatch.instances_per_traj", float64(instances)/float64(max(matched, 1)))
	res.set("mapmatch.drop_share", 1-float64(matched)/float64(max(tried, 1)))
	res.set("mmapio.mapped_mb", float64(mmapio.MappedBytes())/1e6)
	res.set("mmapio.rss_mb", float64(mmapio.ResidentSetBytes())/1e6)

	// The paper's headline per dataset: a profile the workload does not
	// carry is generated small, from the same seed, for its ratio alone.
	for _, p := range gen.Profiles() {
		ratio, ok := byProfile[p.Name]
		if !ok {
			c, err := buildCorpus(p, rc.scaled(ratioProbeTrajs, 40), rc.seed, 0)
			if err != nil {
				return err
			}
			comp, err := core.NewCompressor(c.g, core.DefaultOptions(p.Ts))
			if err != nil {
				return err
			}
			arch, err := comp.Compress(c.trajs)
			if err != nil {
				return err
			}
			ratio = arch.Stats.TotalRatio()
		}
		res.set("core.ratio_"+map[string]string{"DK": "dk", "CD": "cd", "HZ": "hz"}[p.Name], ratio)
	}
	return nil
}

// bitioProbe runs a fixed script of 4096 mixed-width fields (3, 11, 17
// and 40 bits: edge numbers, vertex ids, distances, timestamps) through
// the bit writer and back through the reader.
func bitioProbe(res *result) error {
	const fields, passes = 4096, 51
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, fields)
	widths := make([]int, fields)
	for i := range vals {
		widths[i] = [4]int{3, 11, 17, 40}[i%4]
		vals[i] = rng.Uint64() & (1<<uint(widths[i]) - 1)
	}
	var wt, rt []time.Duration
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		w := bitio.NewWriter(fields * 18)
		for k := range vals {
			w.WriteBits(vals[k], widths[k])
		}
		wt = append(wt, time.Since(t0))
		r := bitio.NewReaderBits(w.Bytes(), w.Len())
		t0 = time.Now()
		for k := range vals {
			v, err := r.ReadBits(widths[k])
			if err != nil || v != vals[k] {
				return fmt.Errorf("bitio: field %d of width %d read back as %d, %v; wrote %d", k, widths[k], v, err, vals[k])
			}
		}
		rt = append(rt, time.Since(t0))
	}
	res.set("bitio.write_ns_per_op", medianDur(wt, time.Nanosecond)/fields)
	res.set("bitio.read_ns_per_op", medianDur(rt, time.Nanosecond)/fields)
	return nil
}
