package server

// Replication endpoints: a follower (internal/cluster.StartFollower)
// pulls the leader's durable WAL suffix from /v1/repl/wal, and
// bootstraps or re-snapshots from /v1/repl/manifest + /v1/repl/file.
// The stream carries raw CRC-framed records (docs/FORMAT.md §7), not
// JSON, so the follower verifies integrity with the same code that
// replays a local log; errors still use the v1 JSON envelope.

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"utcq/internal/ingest"
	"utcq/internal/store"
	"utcq/pkg/client"
)

const (
	// replPollEvery is the internal re-check cadence of a long-polled
	// /v1/repl/wal: the ingester has no append signal to subscribe to,
	// so the handler re-reads the durable log on this period until the
	// wait budget runs out.
	replPollEvery = 100 * time.Millisecond
	// replDefaultMax bounds one WAL response when the follower does not
	// say; replMaxWait caps the long-poll like the watch endpoint.
	replDefaultMax = 512
	replMaxWait    = 120 * time.Second

	// Response headers of /v1/repl/wal: the payload layout version of
	// the framed records, the absolute sequence of the first record,
	// and the record count.
	headerWALVersion = "X-UTCQ-WAL-Version"
	headerWALFrom    = "X-UTCQ-From"
	headerWALCount   = "X-UTCQ-Count"
)

// handleReplWAL serves durable WAL records from ?from=N (absolute
// sequence), at most ?max=M of them, long-polling up to ?wait=S seconds
// when the log has nothing past the cursor yet.  Only fsync-covered
// records are served — the leader's acknowledgement stays the commit
// point — so a follower can never replay a record the leader could
// still lose.  A cursor behind the log's checkpointed start answers 410
// wal_truncated: the follower must re-snapshot from the manifest.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.node.ing == nil {
		err := fmt.Errorf("%w: this node has no WAL to replicate", errIngestDisabled)
		s.Fail(w, err)
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		s.Fail(w, fmt.Errorf("%w: from %q is not an unsigned integer", errBadInput, q.Get("from")))
		return
	}
	maxRecs := replDefaultMax
	if v := q.Get("max"); v != "" {
		if maxRecs, err = strconv.Atoi(v); err != nil || maxRecs < 1 {
			s.Fail(w, fmt.Errorf("%w: max %q is not a positive integer", errBadInput, v))
			return
		}
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil || secs < 0 {
			s.Fail(w, fmt.Errorf("%w: wait %q is not a non-negative integer", errBadInput, v))
			return
		}
		wait = min(time.Duration(secs)*time.Second, replMaxWait)
	}

	// The long poll can outlive the connection's write deadline; lift it
	// like the watch endpoint does and let the wait budget bound us.
	if wait > 0 {
		_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	}
	deadline := time.Now().Add(wait)
	var batch ingest.ShipBatch
	for {
		if batch, err = s.node.ing.ShipFrom(from, maxRecs); err != nil {
			s.Fail(w, err)
			return
		}
		if len(batch.Records) > 0 || !time.Now().Before(deadline) {
			break
		}
		select {
		case <-r.Context().Done():
			// Follower went away; nothing useful left to write.
			return
		case <-time.After(replPollEvery):
		}
	}
	body := ingest.EncodeFrames(batch.Records)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerWALVersion, strconv.Itoa(int(batch.Version)))
	w.Header().Set(headerWALFrom, strconv.FormatUint(batch.From, 10))
	w.Header().Set(headerWALCount, strconv.Itoa(len(batch.Records)))
	if _, err := w.Write(body); err != nil {
		s.failures.Add(1)
	}
}

// handleReplManifest serves the store's current manifest bytes — the
// root of the snapshot/catch-up protocol.  The follower parses it
// (store.ParseManifestInfo) for the generation, the WAL position the
// artifacts embody, and the artifact list to fetch.
func (s *Server) handleReplManifest(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	data, err := s.node.st.ReadArtifact(store.ManifestName)
	if err != nil {
		s.Fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(data); err != nil {
		s.failures.Add(1)
	}
}

// handleReplFile serves one store artifact by name.  Names outside the
// artifact grammar are rejected outright (this endpoint can read store
// files, nothing else); an artifact that existed in a fetched manifest
// but is gone now was garbage-collected by a compaction — 404
// not_found tells the follower to refetch the manifest and start over.
func (s *Server) handleReplFile(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	name := r.PathValue("name")
	if !store.IsArtifactName(name) {
		s.Fail(w, fmt.Errorf("%w: %q is not a store artifact name", errBadInput, name))
		return
	}
	data, err := s.node.st.ReadArtifact(name)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// Not a shard-open failure (those stay 500 on the query
			// path): the follower asked for a file a newer manifest no
			// longer has.
			s.Fail(w, &client.APIError{Status: http.StatusNotFound, Code: client.CodeNotFound, Message: err.Error()})
			return
		}
		s.Fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(data); err != nil {
		s.failures.Add(1)
	}
}
