package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"utcq/internal/query"
	"utcq/internal/roadnet"
	"utcq/pkg/client"
)

// target is one depth of the serving stack as seen by a reader: the three
// queries, answered in the engine's own result types.  *query.Engine
// (d0), *store.Store (d1) and *query.Oracle satisfy it as they are; the
// adapters below put the HTTP handler (d2) and pkg/client against a node
// (d3) or a router (d4) behind the same three calls, so streams,
// verification and the traced ladder are written once.
type target interface {
	Where(j int, t int64, alpha float64) ([]query.WhereResult, error)
	When(j int, loc roadnet.Position, alpha float64) ([]query.WhenResult, error)
	Range(re roadnet.Rect, t int64, alpha float64) ([]int, error)
}

// do runs one read op against a target.
func do(tg target, op *readOp) (int, error) {
	switch op.kind {
	case opWhere:
		r, err := tg.Where(op.traj, op.t, op.alpha)
		return len(r), err
	case opWhen:
		r, err := tg.When(op.traj, op.loc, op.alpha)
		return len(r), err
	}
	r, err := tg.Range(op.rect, op.t, op.alpha)
	return len(r), err
}

func whereReq(j int, t int64, alpha float64) client.WhereRequest {
	return client.WhereRequest{Traj: j, T: t, Alpha: alpha}
}

func whenReq(j int, loc roadnet.Position, alpha float64) client.WhenRequest {
	return client.WhenRequest{Traj: j, Loc: client.Position{Edge: int(loc.Edge), NDist: loc.NDist}, Alpha: alpha}
}

func rangeReq(re roadnet.Rect, t int64, alpha float64) client.RangeRequest {
	return client.RangeRequest{Rect: client.Rect{MinX: re.MinX, MinY: re.MinY, MaxX: re.MaxX, MaxY: re.MaxY}, T: t, Alpha: alpha}
}

func fromWhere(rs []client.WhereResult) []query.WhereResult {
	out := make([]query.WhereResult, len(rs))
	for i, r := range rs {
		out[i] = query.WhereResult{Inst: r.Inst, P: r.P, Loc: roadnet.Position{Edge: roadnet.EdgeID(r.Edge), NDist: r.NDist}}
	}
	return out
}

func fromWhen(rs []client.WhenResult) []query.WhenResult {
	out := make([]query.WhenResult, len(rs))
	for i, r := range rs {
		out[i] = query.WhenResult{Inst: r.Inst, P: r.P, T: r.T}
	}
	return out
}

// clientTarget drives a node or a router through pkg/client.  A router
// answers a range query "degraded" — a lower bound — while a member has
// applied a batch the router has not committed yet; that is a valid reply
// beside a writer and an error only when strict, on a quiet deployment.
type clientTarget struct {
	c      *client.Client
	strict bool
}

func (ct clientTarget) Where(j int, t int64, alpha float64) ([]query.WhereResult, error) {
	rs, err := ct.c.Where(context.Background(), whereReq(j, t, alpha))
	return fromWhere(rs), err
}

func (ct clientTarget) When(j int, loc roadnet.Position, alpha float64) ([]query.WhenResult, error) {
	rs, err := ct.c.When(context.Background(), whenReq(j, loc, alpha))
	return fromWhen(rs), err
}

func (ct clientTarget) Range(re roadnet.Rect, t int64, alpha float64) ([]int, error) {
	r, err := ct.c.Range(context.Background(), rangeReq(re, t, alpha))
	if err == nil && r.Degraded && ct.strict {
		err = fmt.Errorf("range answered degraded (%d shards, %d nodes skipped)", r.ShardsSkipped, r.NodesSkipped)
	}
	return r.Trajs, err
}

// handlerTarget calls a server's route table directly: JSON in, JSON out,
// no socket and no client.
type handlerTarget struct{ h http.Handler }

func (ht handlerTarget) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return ht.postBody(path, body, resp)
}

// postBody is the timed part of the traced ladder's d2: the body is
// already encoded, the response is decoded so that d2 and d3 both end
// with typed results.
func (ht handlerTarget) postBody(path string, body []byte, resp any) error {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	ht.h.ServeHTTP(w, r)
	if w.Code/100 != 2 {
		return fmt.Errorf("%s: HTTP %d: %s", path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	return json.Unmarshal(w.Body.Bytes(), resp)
}

func (ht handlerTarget) Where(j int, t int64, alpha float64) ([]query.WhereResult, error) {
	var out struct {
		Results []client.WhereResult `json:"results"`
	}
	err := ht.post("/v1/where", whereReq(j, t, alpha), &out)
	return fromWhere(out.Results), err
}

func (ht handlerTarget) When(j int, loc roadnet.Position, alpha float64) ([]query.WhenResult, error) {
	var out struct {
		Results []client.WhenResult `json:"results"`
	}
	err := ht.post("/v1/when", whenReq(j, loc, alpha), &out)
	return fromWhen(out.Results), err
}

func (ht handlerTarget) Range(re roadnet.Rect, t int64, alpha float64) ([]int, error) {
	var out client.RangeResult
	err := ht.post("/v1/range", rangeReq(re, t, alpha), &out)
	return out.Trajs, err
}
