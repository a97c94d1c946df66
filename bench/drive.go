package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"utcq/pkg/client"
)

// readStats is what one closed-loop reader saw.
type readStats struct {
	lat       [numOpKinds][]time.Duration
	attempted int
	failed    int
	giveups   int64
	firstErr  error
	elapsed   time.Duration
}

func (a *readStats) merge(b *readStats) {
	for k := range a.lat {
		a.lat[k] = append(a.lat[k], b.lat[k]...)
	}
	a.attempted += b.attempted
	a.failed += b.failed
	a.giveups += b.giveups
	if a.firstErr == nil {
		a.firstErr = b.firstErr
	}
	a.elapsed = max(a.elapsed, b.elapsed)
}

// succeeded counts the queries that completed without error.
func (a *readStats) succeeded() int { return a.attempted - a.failed }

// readLoop is one closed-loop reader: it sends the stream's next op only
// after the previous one returned, until the deadline.  acked, when not
// nil, is the number of trajectories a concurrent writer has had
// acknowledged so far.
func readLoop(tg target, s *opStream, acked *atomic.Int64, dur time.Duration) *readStats {
	rs := &readStats{}
	start := time.Now()
	deadline := start.Add(dur)
	for {
		op := s.next()
		if acked != nil {
			s.c.retarget(&op, int(acked.Load()))
		}
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		_, err := do(tg, &op)
		d := time.Since(t0)
		rs.attempted++
		if err != nil {
			rs.failed++
			if errors.Is(err, client.ErrRetriesExhausted) {
				rs.giveups++
			}
			if rs.firstErr == nil {
				rs.firstErr = fmt.Errorf("%s: %w", opKindNames[op.kind], err)
			}
			continue
		}
		rs.lat[op.kind] = append(rs.lat[op.kind], d)
	}
	rs.elapsed = time.Since(start)
	return rs
}

// readClients runs n readers at once, each on its own stream and target,
// and merges what they saw.
func readClients(n int, mk func(i int) (target, *opStream), acked *atomic.Int64, dur time.Duration) *readStats {
	parts := make([]*readStats, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tg, s := mk(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = readLoop(tg, s, acked, dur)
		}()
	}
	wg.Wait()
	total := &readStats{}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// writeStats is what one closed-loop writer saw.
type writeStats struct {
	ack      []time.Duration // per acknowledged batch
	batches  int
	failed   int
	firstErr error
	elapsed  time.Duration // wall time of the loop, minus time spent in atBatch
}

func (w *writeStats) trajsPerSec() float64 {
	return float64((w.batches-w.failed)*ingestBatch) / w.elapsed.Seconds()
}

// writeLoop is the closed-loop writer: batch k is posted after batch k-1
// was acknowledged and folded (flush=true), until the deadline.  post
// returns an error when the batch was not wholly acknowledged and
// queryable.  atBatch, when not nil, runs after batch number
// storedBytesAtBatch (or after the last one, if the run ends earlier);
// its time is not the writer's.
func writeLoop(post func(k int) error, acked *atomic.Int64, dur time.Duration, atBatch func()) *writeStats {
	ws := &writeStats{}
	start := time.Now()
	deadline := start.Add(dur)
	var excluded time.Duration
	measured := false
	measure := func() {
		if atBatch != nil && !measured {
			t0 := time.Now()
			atBatch()
			excluded += time.Since(t0)
			measured = true
		}
	}
	for k := 0; ; k++ {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		err := post(k)
		d := time.Since(t0)
		ws.batches++
		if err != nil {
			ws.failed++
			if ws.firstErr == nil {
				ws.firstErr = fmt.Errorf("ingest batch %d: %w", k, err)
			}
			continue
		}
		ws.ack = append(ws.ack, d)
		if acked != nil {
			acked.Add(ingestBatch)
		}
		if ws.batches == storedBytesAtBatch {
			measure()
		}
	}
	ws.elapsed = time.Since(start) - excluded
	measure()
	return ws
}

// postIngest returns the post function of a writer that sends the write
// pool, sixteen raw trajectories per request, through pkg/client.
func postIngest(c *client.Client, batches [][]client.RawTrajectory) func(k int) error {
	return func(k int) error {
		resp, err := c.Ingest(context.Background(), batches[k%len(batches)], true)
		if err != nil {
			return err
		}
		return checkAck(resp)
	}
}

// checkAck is the writer's definition of success: the whole batch was
// acknowledged, folded into the store, and no record was dropped.
func checkAck(resp client.IngestResponse) error {
	switch {
	case resp.FlushError != "":
		return fmt.Errorf("acknowledged but not folded: %s", resp.FlushError)
	case resp.Accepted != ingestBatch:
		return fmt.Errorf("accepted %d of %d", resp.Accepted, ingestBatch)
	case len(resp.Dropped) != 0:
		return fmt.Errorf("matcher dropped %d pre-matched records", len(resp.Dropped))
	}
	for _, n := range resp.Nodes {
		if n.Error != "" {
			return fmt.Errorf("member %s: %s (%s)", n.Name, n.Error, n.Code)
		}
	}
	return nil
}

// wireBatches pre-converts the write pool to request payloads, so the
// writer's clock covers the request and not the conversion.
func wireBatches(c *corpus) [][]client.RawTrajectory {
	out := make([][]client.RawTrajectory, len(c.raws)/ingestBatch)
	for k := range out {
		for _, raw := range c.batch(k) {
			pts := make([]client.RawPoint, len(raw.Points))
			for i, p := range raw.Points {
				pts[i] = client.RawPoint{X: p.X, Y: p.Y, T: p.T}
			}
			out[k] = append(out[k], client.RawTrajectory{Points: pts})
		}
	}
	return out
}
