package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"utcq/internal/faultfs"
	"utcq/internal/ingest"
	"utcq/internal/roadnet"
	"utcq/internal/store"
	"utcq/pkg/client"
)

// currentName is the pointer file in a follower's directory naming the
// active snapshot subdirectory.  It is replaced atomically
// (tmp+rename+dirsync), so a crash mid-bootstrap reboots into either
// the old snapshot or the new one — never a half-fetched mix.
const currentName = "CURRENT"

// FollowerOptions configure a replication follower.
type FollowerOptions struct {
	// Dir is the follower's root directory; snapshots live in
	// subdirectories under it, named by the leader generation they were
	// taken at, with CURRENT pointing at the active one.
	Dir string
	// Graph is the road network (must match the leader's: the manifest
	// carries its fingerprint and store.Open verifies it).
	Graph *roadnet.Graph
	// EdgeIndex is the matcher index over Graph.
	EdgeIndex *roadnet.EdgeIndex
	// Ingest configures the follower's ingester (its FS should equal
	// Open.FS so crash simulations cover both).
	Ingest ingest.Options
	// Open configures the follower's store.
	Open store.OpenOptions
	// HTTPClient overrides the transport to the leader (tests).
	HTTPClient *http.Client
	// PollWait is the long-poll hold requested from the leader, in whole
	// seconds (default 20s); PollMax bounds one pull (default 512).
	PollWait time.Duration
	PollMax  int
	// RetryBase is the pause after a failed pull (default 500ms).
	RetryBase time.Duration
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.PollWait <= 0 {
		o.PollWait = 20 * time.Second
	}
	if o.PollMax < 1 {
		o.PollMax = 512
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 500 * time.Millisecond
	}
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	return o
}

// Follower replicates a leader's store: it bootstraps from the leader's
// manifest snapshot (or re-attaches to a snapshot a previous run left in
// Dir), then pulls the leader's durable WAL suffix forever, feeding each
// batch through its own ingester.  Because the store's content is a pure
// function of the WAL, a caught-up follower answers every query
// identically to the leader; because ShipFrom serves only fsync-covered
// records, the leader's acknowledgement stays the one commit point.
type Follower struct {
	leader string
	opts   FollowerOptions
	fs     faultfs.FS
	hc     *http.Client

	mu  sync.Mutex
	st  *store.Store
	ing *ingest.Ingester

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// lastErr is the most recent pull failure (nil while healthy) —
	// surfaced through Err for health reporting and tests.
	errMu   sync.Mutex
	lastErr error
}

// StartFollower attaches to (or bootstraps) the follower state under
// opts.Dir and starts the pull loop against the leader's base URL.
func StartFollower(leader string, opts FollowerOptions) (*Follower, error) {
	opts = opts.withDefaults()
	f := &Follower{
		leader: leader,
		opts:   opts,
		fs:     faultfs.Resolve(opts.Open.FS),
		hc:     opts.HTTPClient,
		done:   make(chan struct{}),
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	if err := f.attach(); err != nil {
		f.cancel()
		return nil, err
	}
	go f.pullLoop()
	return f, nil
}

// Store returns the follower's store (for serving reads).
func (f *Follower) Store() *store.Store {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// Ingester returns the follower's ingester (for stats/pending; writes
// arrive only through replication).
func (f *Follower) Ingester() *ingest.Ingester {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ing
}

// Err returns the most recent pull failure, or nil while replication is
// healthy.
func (f *Follower) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.lastErr
}

func (f *Follower) setErr(err error) {
	f.errMu.Lock()
	f.lastErr = err
	f.errMu.Unlock()
}

// Close stops the pull loop and the ingester.
func (f *Follower) Close() error {
	f.cancel()
	<-f.done
	f.mu.Lock()
	ing := f.ing
	f.mu.Unlock()
	if ing != nil {
		return ing.Close()
	}
	return nil
}

// attach resumes the snapshot CURRENT points at, or bootstraps a fresh
// one from the leader when there is nothing (or nothing usable) local.
func (f *Follower) attach() error {
	if sub, err := f.fs.ReadFile(filepath.Join(f.opts.Dir, currentName)); err == nil && len(sub) > 0 {
		if err := f.open(string(sub)); err == nil {
			return nil
		}
		// A snapshot that no longer opens (half-written, graph mismatch,
		// corrupted) is abandoned; re-bootstrap replaces CURRENT.
	}
	sub, err := f.bootstrap()
	if err != nil {
		return err
	}
	return f.open(sub)
}

// open mounts the snapshot subdirectory: store + ingester + background
// drain.
func (f *Follower) open(sub string) error {
	dir := filepath.Join(f.opts.Dir, sub)
	st, err := store.Open(dir, f.opts.Graph, f.opts.Open)
	if err != nil {
		return err
	}
	ingOpts := f.opts.Ingest
	if ingOpts.FS == nil {
		ingOpts.FS = f.opts.Open.FS
	}
	ing, err := ingest.New(st, f.opts.EdgeIndex, filepath.Join(dir, "ingest.wal"), ingOpts)
	if err != nil {
		return err
	}
	ing.Start()
	f.mu.Lock()
	f.st, f.ing = st, ing
	f.mu.Unlock()
	return nil
}

// bootstrap fetches a consistent snapshot from the leader: manifest
// first (for the artifact list and the WAL position the artifacts
// embody), then every artifact, then the manifest bytes LAST — a
// snapshot directory is complete exactly when its manifest exists.  A
// 404 on an artifact means the leader compacted it away between our
// manifest fetch and now; the whole snapshot restarts from a fresh
// manifest (bounded retries).  Returns the snapshot subdirectory name
// after atomically pointing CURRENT at it.
func (f *Follower) bootstrap() (string, error) {
	const maxAttempts = 5
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		manBytes, err := f.fetch("/v1/repl/manifest")
		if err != nil {
			return "", fmt.Errorf("cluster: fetch leader manifest: %w", err)
		}
		info, err := store.ParseManifestInfo(manBytes)
		if err != nil {
			return "", fmt.Errorf("cluster: parse leader manifest: %w", err)
		}
		sub := fmt.Sprintf("snap-g%d-w%d", info.Generation, info.WALApplied)
		dir := filepath.Join(f.opts.Dir, sub)
		if err := f.fs.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
		stale := false
		for _, name := range info.Files {
			data, err := f.fetch("/v1/repl/file/" + name)
			if err != nil {
				var ae *client.APIError
				if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
					// Compacted away under us; restart from a fresh manifest.
					stale, lastErr = true, err
					break
				}
				return "", fmt.Errorf("cluster: fetch artifact %s: %w", name, err)
			}
			if err := faultfs.WriteFile(f.fs, filepath.Join(dir, name), faultfs.Bytes(data)); err != nil {
				return "", err
			}
		}
		if stale {
			continue
		}
		// Manifest last: its presence marks the snapshot complete.
		if err := faultfs.WriteFile(f.fs, filepath.Join(dir, store.ManifestName), faultfs.Bytes(manBytes)); err != nil {
			return "", err
		}
		if err := f.fs.SyncDir(dir); err != nil {
			return "", err
		}
		// The follower's log starts where the snapshot's artifacts end, so
		// the pull cursor lines up with the leader's absolute numbering.
		if err := ingest.CreateWAL(f.fs, filepath.Join(dir, "ingest.wal"), info.WALApplied); err != nil {
			return "", err
		}
		// Atomically repoint CURRENT at the new snapshot.
		if err := faultfs.ReplaceFile(f.fs, filepath.Join(f.opts.Dir, currentName), faultfs.Bytes([]byte(sub))); err != nil {
			return "", err
		}
		return sub, nil
	}
	return "", fmt.Errorf("cluster: snapshot kept going stale after %d attempts: %w", maxAttempts, lastErr)
}

// maxFetchBytes bounds one replication response body (snapshot artifact
// or WAL batch).
const maxFetchBytes = 256 << 20

// readBody drains a replication response body under maxFetchBytes,
// failing loudly on an over-limit body: silently truncating a snapshot
// artifact would write a corrupt file durably and surface only as an
// unexplained store.Open failure at bootstrap.
func readBody(resp *http.Response) ([]byte, error) {
	return readBodyLimit(resp.Body, maxFetchBytes)
}

func readBodyLimit(r io.Reader, limit int64) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("cluster: response body exceeds the %d byte replication fetch limit", limit)
	}
	return body, nil
}

// fetch GETs a leader replication endpoint and returns the body; non-2xx
// answers decode into *client.APIError when the envelope parses.
func (f *Follower) fetch(path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(f.ctx, "GET", f.leader+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp.StatusCode, body)
	}
	return body, nil
}

// apiError turns an error response into *client.APIError, decoding the
// v1 envelope when present.
func apiError(status int, body []byte) error {
	ae := &client.APIError{Status: status, Code: client.CodeInternal, Message: string(body)}
	var env client.ErrorResponse
	if err := json.Unmarshal(body, &env); err == nil && env.Code != "" {
		ae.Code, ae.Message = env.Code, env.Error
		ae.RetryAfter = time.Duration(env.RetryAfter) * time.Second
	}
	return ae
}

// pullLoop pulls the leader's durable WAL suffix forever: long-poll,
// decode, replay, repeat.  wal_truncated (the leader checkpointed past
// our cursor) triggers a full re-snapshot; any other failure backs off
// and retries, so a leader restart is just a pause.
func (f *Follower) pullLoop() {
	defer close(f.done)
	for f.ctx.Err() == nil {
		if err := f.pullOnce(); err != nil {
			if f.ctx.Err() != nil {
				return
			}
			f.setErr(err)
			var ae *client.APIError
			if errors.As(err, &ae) && ae.Code == client.CodeWALTruncated {
				if rerr := f.resnapshot(); rerr != nil {
					f.setErr(fmt.Errorf("cluster: re-snapshot after truncation: %w", rerr))
				} else {
					f.setErr(nil)
					continue
				}
			}
			select {
			case <-f.ctx.Done():
				return
			case <-time.After(f.opts.RetryBase):
			}
			continue
		}
		f.setErr(nil)
	}
}

// pullOnce is one pull exchange: request the suffix at our cursor,
// replay whatever arrives (an empty batch is a heartbeat).
func (f *Follower) pullOnce() error {
	f.mu.Lock()
	ing := f.ing
	f.mu.Unlock()
	from := ing.NextSeq()
	path := fmt.Sprintf("/v1/repl/wal?from=%d&max=%d&wait=%d",
		from, f.opts.PollMax, int(f.opts.PollWait/time.Second))
	req, err := http.NewRequestWithContext(f.ctx, "GET", f.leader+path, nil)
	if err != nil {
		return err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp.StatusCode, body)
	}
	ver, err := strconv.ParseUint(resp.Header.Get("X-UTCQ-WAL-Version"), 10, 16)
	if err != nil {
		return fmt.Errorf("cluster: leader sent no WAL version: %w", err)
	}
	recs, err := ingest.DecodeFrames(body, uint16(ver))
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	_, err = ing.ReplicateBatch(from, recs)
	return err
}

// resnapshot abandons the current snapshot and bootstraps a fresh one —
// the recovery path when the leader's log no longer reaches back to our
// cursor.  The old ingester is closed first so its WAL handle is
// released; the old store is simply dropped (reads racing the swap see
// the old, still-valid snapshot).
func (f *Follower) resnapshot() error {
	f.mu.Lock()
	old := f.ing
	f.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	sub, err := f.bootstrap()
	if err != nil {
		return err
	}
	return f.open(sub)
}
