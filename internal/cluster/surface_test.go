package cluster

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"utcq/internal/gen"
	"utcq/pkg/client"
)

// surfaceReply is what a client can branch on in a failed (or
// successful) answer: the status, the envelope code and Retry-After.
type surfaceReply struct {
	status     int
	code       string
	retryAfter string
}

func postSurface(t *testing.T, url, body string) surfaceReply {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env client.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&env)
	return surfaceReply{status: resp.StatusCode, code: env.Code, retryAfter: resp.Header.Get("Retry-After")}
}

// TestSurfaceParity posts the same requests to a single node and to a
// router over the same data: both must answer with the same status,
// envelope code and Retry-After, because both serve through one handler
// set.
func TestSurfaceParity(t *testing.T) {
	f := newEquivFixture(t, gen.CD(), 18)
	big, err := json.Marshal(client.BatchRequest{Queries: make([]client.BatchQuery, 300)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, path, body string }{
		{"not json", "/v1/where", "not json"},
		{"unknown field", "/v1/where", `{"bogus":1}`},
		{"wrong type", "/v1/where", `{"traj":"x"}`},
		{"rect not an object", "/v1/range", `{"rect":1}`},
		{"empty ingest", "/v1/ingest", `{"trajectories":[]}`},
		{"300-query batch", "/v1/batch", string(big)},
		{"unknown trajectory", "/v1/where", `{"traj":1000000,"t":1,"alpha":0.1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			node := postSurface(t, f.single.BaseURL()+tc.path, tc.body)
			routed := postSurface(t, f.routed.BaseURL()+tc.path, tc.body)
			if node != routed {
				t.Fatalf("node answered %+v, router %+v", node, routed)
			}
			if node.status < 400 || node.code == "" {
				t.Fatalf("want a classified error, got %+v", node)
			}
		})
	}
}
