package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"utcq/internal/cluster"
	"utcq/internal/faultfs"
	"utcq/internal/ingest"
	"utcq/internal/server"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

const walName = "ingest.wal"

// flushPolicy is printed with every record: it is the production default
// and the same on both sides of any comparison.
const flushPolicy = "WAL fsync on (NoSync=false), ingest requests carry flush=true, CompactEvery=8, ingest batch size 32, mmap on"

// storeOptions are the build options of every store: utcqd's defaults.
func storeOptions(c *corpus) store.Options {
	o := store.DefaultOptions(c.profile.Ts)
	o.NumShards = storeShards
	return o
}

// ingestOptions are utcqd's defaults; fsys is nil except in the traced
// write ladder, which counts writes and fsyncs through it.
func ingestOptions(c *corpus, fsys faultfs.FS) ingest.Options {
	return ingest.Options{
		BatchSize:    32,
		FlushEvery:   time.Second,
		Match:        c.profile.Match,
		CompactEvery: compactEvery,
		FS:           fsys,
	}
}

// saveStore compresses, indexes and shards the trajectories and writes
// the store to dir.
func saveStore(c *corpus, tus []*traj.Uncertain, dir string) error {
	st, err := store.Build(c.g, tus, storeOptions(c))
	if err != nil {
		return fmt.Errorf("build store: %w", err)
	}
	if err := st.Save(dir); err != nil {
		return fmt.Errorf("save store: %w", err)
	}
	return nil
}

// node is one in-process utcqd: a store opened from its directory, an
// ingester on a WAL beside it, and the HTTP server on a loopback
// listener — the code cmd/utcqd runs, minus flag parsing.
type node struct {
	dir  string
	st   *store.Store
	ing  *ingest.Ingester
	srv  *server.Server
	url  string
	done chan error
}

// startNode opens the store saved in dir and serves it.
func startNode(c *corpus, dir string) (*node, error) {
	st, err := store.Open(dir, c.g, store.OpenOptions{})
	if err != nil {
		return nil, fmt.Errorf("open store %s: %w", dir, err)
	}
	ing, err := ingest.New(st, c.eix, filepath.Join(dir, walName), ingestOptions(c, nil))
	if err != nil {
		return nil, fmt.Errorf("open WAL in %s: %w", dir, err)
	}
	ing.Start()
	n := &node{dir: dir, st: st, ing: ing, srv: server.New(st, server.Options{Ingester: ing}), done: make(chan error, 1)}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = ing.Close() // the listen error is the one to report
		return nil, err
	}
	n.url = "http://" + l.Addr().String()
	go func() { n.done <- n.srv.Serve(l) }()
	return n, nil
}

// stop drains the server and the ingester and waits for both.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.done; err == nil {
		err = serr
	}
	if cerr := n.ing.Close(); err == nil {
		err = cerr
	}
	return err
}

// clusterDeploy is three members behind a router, all in process.
type clusterDeploy struct {
	members []*node
	rt      *cluster.Router
	url     string
	done    chan error
	syncDur time.Duration
}

// saveMembers splits the corpus by the cluster placement and saves one
// store per member under root, as `utcqd -cluster-node i` would.
func saveMembers(c *corpus, root string) ([]string, error) {
	place := cluster.NewPlacement(cluster.NodeNames(clusterMembers), 0, 0)
	parts := make([][]*traj.Uncertain, clusterMembers)
	for gid, tu := range c.trajs {
		o := place.Owner(gid)
		parts[o] = append(parts[o], tu)
	}
	dirs := make([]string, clusterMembers)
	for i := range dirs {
		dirs[i] = filepath.Join(root, cluster.NodeNames(clusterMembers)[i])
		if err := saveStore(c, parts[i], dirs[i]); err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// startCluster serves the member directories and a router in front of them.
func startCluster(c *corpus, dirs []string) (*clusterDeploy, error) {
	d := &clusterDeploy{done: make(chan error, 1)}
	var ms []cluster.Member
	for i, dir := range dirs {
		n, err := startNode(c, dir)
		if err != nil {
			_ = d.stop() // the start error is the one to report
			return nil, err
		}
		d.members = append(d.members, n)
		ms = append(ms, cluster.Member{Name: cluster.NodeNames(len(dirs))[i], URL: n.url})
	}
	d.rt = cluster.NewRouter(ms, cluster.RouterOptions{})
	t0 := time.Now()
	if err := d.rt.Sync(context.Background()); err != nil {
		_ = d.stop()
		return nil, fmt.Errorf("router sync: %w", err)
	}
	d.syncDur = time.Since(t0)
	d.rt.Start()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	d.url = "http://" + l.Addr().String()
	rt := d.rt
	go func() { d.done <- rt.Serve(l) }()
	return d, nil
}

func (d *clusterDeploy) stop() error {
	var err error
	if d.url != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err = d.rt.Shutdown(ctx)
		if serr := <-d.done; err == nil {
			err = serr
		}
	} else if d.rt != nil {
		d.rt.Close()
	}
	for _, n := range d.members {
		if nerr := n.stop(); err == nil {
			err = nerr
		}
	}
	return err
}

// newClient returns a pkg/client with a connection pool of its own, so
// every client goroutine holds its own connection; retries feed the
// counter.
func newClient(url string, retries *int64) (*client.Client, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	c := client.New(url, client.Options{
		HTTPClient: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		OnRetry: func(int, error, time.Duration) {
			if retries != nil {
				*retries++
			}
		},
	})
	return c, tr.CloseIdleConnections
}

// dirBytes sums the sizes of the regular files under the directories:
// shard archives, .stiu sidecars, manifests and WALs, tombstoned files
// included — what the deployment occupies on disk.
func dirBytes(dirs ...string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || !e.Type().IsRegular() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				// A temporary file renamed away between listing and stat.
				if errors.Is(err, os.ErrNotExist) {
					return nil
				}
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
