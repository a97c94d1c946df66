// Streaming read support: generation-pinned snapshots over retained
// views, and a change signal that watch subscriptions block on.
//
// Every mutation already builds a complete immutable view and swaps it in
// atomically; this file keeps the previous view alive for one generation
// (mirroring the on-disk contract, where files tombstoned in generation N
// are deleted only by generation N+1's compaction) so a reader can pin
// "the store as of generation N" while N+1 is being served — snapshot
// isolation with bounded retention.  Incremental re-evaluation for watch
// subscriptions rides on shard-id monotonicity: ids are never reused, so
// every trajectory that joined the result set after generation G lives in
// a shard with id >= the nextID watermark recorded at G, and re-scanning
// only those shards (bounds pruning included) plus a set union with what
// the subscriber already holds reproduces the full query exactly.
package store

import (
	"context"
	"errors"
	"fmt"

	"utcq/internal/query"
	"utcq/internal/roadnet"
)

// viewRetention is how many previous generations stay pinnable.  It is
// deliberately exactly one, matching the deferred tombstone GC (a file
// tombstoned in generation N survives until the next compaction): the
// retained view's shards are therefore always either resident or still on
// disk, so pinned queries never chase deleted files.
const viewRetention = 1

// ErrGenerationRetired reports a pin on a generation older than the
// retention window: the view (and possibly its shard files) is gone.
// Servers map it to 410 Gone — the client must re-query at the current
// generation, not retry.
var ErrGenerationRetired = errors.New("store: generation retired")

// ErrGenerationUnknown reports a pin on a generation the store has not
// reached — a client mistake or a store rebuilt from older data.
var ErrGenerationUnknown = errors.New("store: generation unknown")

// genSignal pairs a generation number with a channel that closes when
// that generation stops being current.  Watchers load it, compare
// generations, and block on the channel only when nothing changed yet.
type genSignal struct {
	gen uint64
	ch  chan struct{}
}

// swap publishes nv as the current view: the old view retires into the
// retention ring (generation-pinned readers), and the generation signal
// rolls over, waking every blocked watcher.  Callers hold s.mu (Build and
// Open call it before the store escapes, which is just as safe).
func (s *Store) swap(nv *view) {
	if old := s.v.Load(); old != nil {
		var ring []*view
		if p := s.retained.Load(); p != nil {
			ring = *p
		}
		ring = append(append([]*view(nil), ring...), old)
		if len(ring) > viewRetention {
			ring = ring[len(ring)-viewRetention:]
		}
		s.retained.Store(&ring)
	}
	s.v.Store(nv)
	sig := &genSignal{gen: nv.man.generation, ch: make(chan struct{})}
	if old := s.sig.Swap(sig); old != nil {
		close(old.ch)
	}
}

// GenerationChanged returns the current generation and a channel that
// closes when it is superseded.  The pattern for a watcher:
//
//	gen, ch := st.GenerationChanged()
//	if gen > lastSeen { evaluate() } else { select { case <-ch: ... } }
//
// The channel close only signals "reload and re-check": by the time a
// watcher runs, more generations may have passed — which is exactly what
// incremental re-evaluation absorbs.
func (s *Store) GenerationChanged() (uint64, <-chan struct{}) {
	sig := s.sig.Load()
	return sig.gen, sig.ch
}

// Snapshot is an immutable read handle on one generation of the store.
// All its queries answer exactly as the whole store did at that
// generation, regardless of concurrent mutations.  A snapshot is a cheap
// pair of pointers — take one per request, do not hoard them (a held
// snapshot pins its view's engines in memory, though never against
// correctness).
type Snapshot struct {
	s *Store
	v *view
}

// Snapshot returns a handle on the current generation.
func (s *Store) Snapshot() Snapshot {
	return Snapshot{s: s, v: s.v.Load()}
}

// SnapshotAt returns a handle pinned to generation gen: the current
// generation, or a retained previous one.  Pins older than the retention
// window fail with ErrGenerationRetired (HTTP 410); pins beyond the
// current generation with ErrGenerationUnknown (HTTP 404).
func (s *Store) SnapshotAt(gen uint64) (Snapshot, error) {
	cur := s.v.Load()
	if gen == cur.man.generation {
		return Snapshot{s: s, v: cur}, nil
	}
	if gen > cur.man.generation {
		return Snapshot{}, fmt.Errorf("%w: %d is beyond current generation %d", ErrGenerationUnknown, gen, cur.man.generation)
	}
	if p := s.retained.Load(); p != nil {
		for i := len(*p) - 1; i >= 0; i-- {
			if v := (*p)[i]; v.man.generation == gen {
				return Snapshot{s: s, v: v}, nil
			}
		}
	}
	return Snapshot{}, fmt.Errorf("%w: generation %d is older than the %d retained (current %d)",
		ErrGenerationRetired, gen, viewRetention, cur.man.generation)
}

// Generation returns the snapshot's manifest generation.
func (sn Snapshot) Generation() uint64 { return sn.v.man.generation }

// ShardWatermark returns the snapshot's next-shard-id high-water mark.
// Shard ids are never reused, so every shard added by any LATER
// generation has an id >= this watermark — the resume cursor for
// incremental watch re-evaluation (Snapshot.RangeSince).
func (sn Snapshot) ShardWatermark() uint32 { return sn.v.man.nextID }

// NumTrajectories returns the snapshot's global trajectory count.
func (sn Snapshot) NumTrajectories() int { return len(sn.v.man.shardOf) }

// Where answers the probabilistic where query at this generation; ctx
// bounds the wait for the owning shard's lazy open.
func (sn Snapshot) Where(ctx context.Context, j int, t int64, alpha float64) ([]query.WhereResult, error) {
	eng, local, err := sn.s.locate(ctx, sn.v, j)
	if err != nil {
		return nil, err
	}
	return eng.Where(local, t, alpha)
}

// When answers the probabilistic when query at this generation (ctx as
// for Where).
func (sn Snapshot) When(ctx context.Context, j int, loc roadnet.Position, alpha float64) ([]query.WhenResult, error) {
	eng, local, err := sn.s.locate(ctx, sn.v, j)
	if err != nil {
		return nil, err
	}
	return eng.When(local, loc, alpha)
}

// Range answers the probabilistic range query at this generation.  Once
// ctx is done no further shard is opened or evaluated, and the query
// fails with ctx's error.
func (sn Snapshot) Range(ctx context.Context, re roadnet.Rect, t int64, alpha float64) ([]int, error) {
	out, _, err := sn.s.rangeView(ctx, sn.v, re, t, alpha, false, 0)
	return out, err
}

// RangeDegraded is Range with quarantined shards skipped instead of
// failing the query; the second return value counts the live shards not
// consulted (0: the result is complete).
func (sn Snapshot) RangeDegraded(ctx context.Context, re roadnet.Rect, t int64, alpha float64) ([]int, int, error) {
	return sn.s.rangeView(ctx, sn.v, re, t, alpha, true, 0)
}

// RangeSince answers the range query consulting only shards with id >=
// since (a ShardWatermark taken at an earlier generation): the
// trajectories that could have ENTERED the result set after that
// generation.  Because accepted trajectories never change or leave —
// data is immutable; compaction only moves records into new shards with
// higher ids, whose rescan re-reports them — the union of a full Range at
// generation G and RangeSince(watermark(G)) at generation H > G equals
// the full Range at H.  TestWatchMatchesFullRequery pins this identity
// under live ingest and compaction.
func (sn Snapshot) RangeSince(ctx context.Context, since uint32, re roadnet.Rect, t int64, alpha float64) ([]int, error) {
	out, _, err := sn.s.rangeView(ctx, sn.v, re, t, alpha, false, since)
	return out, err
}
