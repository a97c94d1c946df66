// Live range subscriptions: GET /v1/watch/range delivers the result set
// of one range query and keeps it current as ingestion advances the
// store's generation — as a single long-poll exchange (default) or as a
// Server-Sent-Events stream (?stream=1).
//
// The protocol is a cursor resume loop.  Every update carries the
// generation it was computed at and the store's shard-id watermark; the
// client echoes both back (?gen=N&cursor=W) and the server answers with
// only the trajectories that could have ENTERED the result set since —
// shards with id >= the watermark, pruned by the same per-shard geometry
// bounds as a full query (store.Snapshot.RangeSince).  Accepted
// trajectories never change or leave (data is immutable; compaction moves
// records into new, higher-id shards whose rescan re-reports them), so
// the client-side union of updates always equals a full /v1/range at the
// update's generation: TestWatchMatchesFullRequery pins exactly that.
// The watermark survives any number of missed generations, so a client
// that disconnects resumes with its last {gen, cursor} and loses nothing
// (TestWatchReconnectMidStream) — there is no server-side subscription
// state to lose.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"utcq/internal/roadnet"
	"utcq/internal/store"
	"utcq/pkg/client"
)

// watchDefaultWait is the long-poll hold when the client sends no
// timeout; watchMaxWait caps client-requested holds so a subscription
// cannot park a handler goroutine indefinitely.
const (
	watchDefaultWait = 25 * time.Second
	watchMaxWait     = 120 * time.Second
	sseHeartbeat     = 15 * time.Second
)

// WatchResponse is one watch update; the canonical definition is
// client.WatchUpdate (see server.go on the wire-type aliasing).
type WatchResponse = client.WatchUpdate

// watchRequest is the parsed query string of a watch subscription.
type watchRequest struct {
	re    roadnet.Rect
	t     int64
	alpha float64

	// hasGen selects incremental mode: the client has the result set as of
	// gen and wants only what entered since cursor.  Without it the first
	// response is the full set (Reset).
	hasGen bool
	gen    uint64
	cursor uint32

	stream bool
	wait   time.Duration
}

// parseWatchRequest decodes and validates the query parameters of
// /v1/watch/range.  All failures are errBadInput (400).
func parseWatchRequest(r *http.Request) (watchRequest, error) {
	q := r.URL.Query()
	var req watchRequest

	f := func(key string) (float64, error) {
		s := q.Get(key)
		if s == "" {
			return 0, fmt.Errorf("%w: missing required parameter %q", errBadInput, key)
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("%w: %s=%q is not a number", errBadInput, key, s)
		}
		if v != v || v > 1e308 || v < -1e308 {
			return 0, fmt.Errorf("%w: %s=%q is not finite", errBadInput, key, s)
		}
		return v, nil
	}
	var err error
	if req.re.MinX, err = f("minX"); err != nil {
		return req, err
	}
	if req.re.MinY, err = f("minY"); err != nil {
		return req, err
	}
	if req.re.MaxX, err = f("maxX"); err != nil {
		return req, err
	}
	if req.re.MaxY, err = f("maxY"); err != nil {
		return req, err
	}
	if req.re.MinX > req.re.MaxX || req.re.MinY > req.re.MaxY {
		return req, fmt.Errorf("%w: empty rectangle [%g,%g]x[%g,%g]", errBadInput, req.re.MinX, req.re.MaxX, req.re.MinY, req.re.MaxY)
	}
	ts := q.Get("t")
	if ts == "" {
		return req, fmt.Errorf("%w: missing required parameter %q", errBadInput, "t")
	}
	if req.t, err = strconv.ParseInt(ts, 10, 64); err != nil {
		return req, fmt.Errorf("%w: t=%q is not an integer", errBadInput, ts)
	}
	if as := q.Get("alpha"); as != "" {
		if req.alpha, err = strconv.ParseFloat(as, 64); err != nil || req.alpha != req.alpha || req.alpha < 0 || req.alpha > 1 {
			return req, fmt.Errorf("%w: alpha=%q is not in [0, 1]", errBadInput, as)
		}
	}
	if gs := q.Get("gen"); gs != "" {
		if req.gen, err = strconv.ParseUint(gs, 10, 64); err != nil {
			return req, fmt.Errorf("%w: gen=%q is not an unsigned integer", errBadInput, gs)
		}
		req.hasGen = true
	}
	if cs := q.Get("cursor"); cs != "" {
		c, err := strconv.ParseUint(cs, 10, 32)
		if err != nil {
			return req, fmt.Errorf("%w: cursor=%q is not a 32-bit unsigned integer", errBadInput, cs)
		}
		req.cursor = uint32(c)
	}
	switch v := q.Get("stream"); v {
	case "", "0", "false":
	case "1", "true", "sse":
		req.stream = true
	default:
		return req, fmt.Errorf("%w: stream=%q (want 1, true or sse)", errBadInput, v)
	}
	req.wait = watchDefaultWait
	if ws := q.Get("timeout"); ws != "" {
		secs, err := strconv.ParseUint(ws, 10, 32)
		if err != nil {
			return req, fmt.Errorf("%w: timeout=%q is not a number of seconds", errBadInput, ws)
		}
		req.wait = time.Duration(secs) * time.Second
		if req.wait > watchMaxWait {
			req.wait = watchMaxWait
		}
	}
	return req, nil
}

// evaluate computes one update against sn under the subscriber's
// context: the full result set in non-incremental mode, only the shards
// at or past the cursor otherwise.
func (s *Server) evaluate(ctx context.Context, sn store.Snapshot, req watchRequest) (WatchResponse, error) {
	var trajs []int
	var err error
	if req.hasGen {
		trajs, err = sn.RangeSince(ctx, req.cursor, req.re, req.t, req.alpha)
	} else {
		trajs, err = sn.Range(ctx, req.re, req.t, req.alpha)
	}
	if err != nil {
		return WatchResponse{}, err
	}
	if trajs == nil {
		trajs = []int{}
	}
	return WatchResponse{
		Gen:       sn.Generation(),
		Watermark: sn.ShardWatermark(),
		Added:     trajs,
		Reset:     !req.hasGen,
	}, nil
}

// watchOnce is one long-poll exchange: answer immediately when the client
// is behind (or has no state), otherwise hold the request until the
// generation advances or the poll window closes (then answer with an
// empty delta, which the client treats as a heartbeat).
func (s *Server) watchOnce(r *http.Request, req watchRequest) (WatchResponse, error) {
	poll, cancel := context.WithTimeout(r.Context(), req.wait)
	defer cancel()
	for {
		// Load the signal BEFORE the snapshot: swap publishes the view
		// first, so a channel from before our snapshot is always closed by
		// any mutation the snapshot missed — no lost wakeups.
		_, ch := s.node.st.GenerationChanged()
		sn := s.node.st.Snapshot()
		if req.hasGen && req.gen > sn.Generation() {
			return WatchResponse{}, fmt.Errorf("%w: watch gen %d is beyond current generation %d",
				store.ErrGenerationUnknown, req.gen, sn.Generation())
		}
		if !req.hasGen || sn.Generation() > req.gen {
			resp, err := s.evaluate(r.Context(), sn, req)
			if err == nil {
				s.watchNotifies.Add(1)
			}
			return resp, err
		}
		select {
		case <-ch:
		case <-poll.Done():
			if err := r.Context().Err(); err != nil {
				return WatchResponse{}, err
			}
			// Nothing changed inside the window: empty heartbeat delta.
			return WatchResponse{Gen: sn.Generation(), Watermark: sn.ShardWatermark(), Added: []int{}}, nil
		}
	}
}

// handleWatchRange serves GET /v1/watch/range.
func (s *Server) handleWatchRange(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.node == nil {
		// Subscriptions resume from one store's generation and shard
		// watermark; a router holds neither.
		s.Fail(w, &client.APIError{Status: http.StatusNotImplemented, Code: client.CodeUnsupported,
			Message: "watch subscriptions are not routed; subscribe to a member node directly"})
		return
	}
	req, err := parseWatchRequest(r)
	if err != nil {
		s.Fail(w, err)
		return
	}
	s.watchers.Add(1)
	defer s.watchers.Add(-1)
	// A subscription legitimately outlives the server's write timeout;
	// progress is guaranteed by the poll window / heartbeat instead.
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
	if req.stream {
		s.watchSSE(w, r, rc, req)
		return
	}
	resp, err := s.watchOnce(r, req)
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away; nothing to answer
		}
		s.Fail(w, err)
		return
	}
	s.reply(w, resp)
}

// watchSSE streams updates as Server-Sent Events: a loop of long-poll
// exchanges with the heartbeat interval as the poll window, sending one
// "update" event per generation batch and a comment-line heartbeat per
// idle window, until the client disconnects.  Every event carries the
// same WatchResponse JSON as the long-poll exchange, so a dropped stream
// resumes by reconnecting (either mode) with the last event's gen and
// watermark.
func (s *Server) watchSSE(w http.ResponseWriter, r *http.Request, rc *http.ResponseController, req watchRequest) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	req.wait = sseHeartbeat
	for {
		resp, err := s.watchOnce(r, req)
		if err != nil {
			return // client gone, or nothing sane to stream: the client resubscribes
		}
		msg := ": heartbeat\n\n" // nothing changed inside the window
		if !req.hasGen || resp.Gen > req.gen {
			data, _ := json.Marshal(resp)
			msg = fmt.Sprintf("event: update\ndata: %s\n\n", data)
			req.hasGen, req.gen, req.cursor = true, resp.Gen, resp.Watermark
		}
		if _, err := fmt.Fprint(w, msg); err != nil {
			return
		}
		_ = rc.Flush()
	}
}
