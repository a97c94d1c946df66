package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"utcq/pkg/client"
)

// daemonEnv makes the test binary run main() instead of the tests, so the
// black-box test drives the real utcqd flag parsing, serving and shutdown
// without building a separate binary.
const daemonEnv = "UTCQD_TEST_RUN_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one utcqd process started from the test binary.
type daemon struct {
	url  string
	cmd  *exec.Cmd
	mu   sync.Mutex
	logs bytes.Buffer
}

func (d *daemon) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.Write(p)
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startDaemon runs utcqd with args on a fresh loopback port and waits
// until /healthz answers.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	addr := freeAddr(t)
	d := &daemon{url: "http://" + addr}
	d.cmd = exec.Command(os.Args[0], append([]string{"-addr", addr}, args...)...)
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d.cmd.Stdout, d.cmd.Stderr = d, d
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("utcqd %v did not come up: %v\n%s", args, err, d.log())
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// stop sends SIGTERM and requires a clean exit after the final "bye".
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("utcqd exit after SIGTERM: %v\n%s", err, d.log())
	}
	if logs := d.log(); !strings.HasSuffix(strings.TrimSpace(logs), "bye") {
		t.Fatalf("utcqd log does not end in bye:\n%s", logs)
	}
}

// post sends body to path and decodes the reply into out.
func post(t *testing.T, url, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decode reply: %v", path, err)
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url, path string, out any) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// TestDaemonClusterBlackBox runs two placement-filtered members and a
// router as real utcqd processes on loopback ports: the router reports
// both nodes healthy, answers a whole-bounds range, rejects a malformed
// body with the same 400 bad_request as a member, and every process
// exits 0 on SIGTERM after logging "bye".
func TestDaemonClusterBlackBox(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three utcqd processes")
	}
	var members []*daemon
	var urls []string
	for i := 0; i < 2; i++ {
		m := startDaemon(t, "-profile", "CD", "-n", "30", "-shards", "2",
			"-cluster-node", fmt.Sprint(i), "-cluster-nodes", "2")
		members = append(members, m)
		urls = append(urls, m.url)
	}
	router := startDaemon(t, "-members", strings.Join(urls, ","))

	var health client.Health
	getJSON(t, router.url, "/healthz", &health)
	if health.Status != "ok" || len(health.Nodes) != 2 {
		t.Fatalf("router healthz: %+v, want ok with 2 nodes\n%s", health, router.log())
	}

	var stats client.StatsResponse
	getJSON(t, router.url, "/v1/stats", &stats)
	if stats.Trajectories != 30 {
		t.Fatalf("router serves %d trajectories, want 30", stats.Trajectories)
	}
	b := stats.DataBounds
	rangeBody := fmt.Sprintf(`{"rect":{"minX":%g,"minY":%g,"maxX":%g,"maxY":%g},"t":%d,"alpha":0.1}`,
		b.MinX, b.MinY, b.MaxX, b.MaxY, (stats.TimeMin+stats.TimeMax)/2)
	var res client.RangeResult
	if code := post(t, router.url, "/v1/range", rangeBody, &res); code != http.StatusOK || res.Degraded {
		t.Fatalf("routed range: status %d, %+v; want 200, not degraded", code, res)
	}

	for _, d := range []*daemon{members[0], router} {
		var env client.ErrorResponse
		if code := post(t, d.url, "/v1/where", "not json", &env); code != http.StatusBadRequest || env.Code != client.CodeBadRequest {
			t.Fatalf("%s malformed where: status %d code %q, want 400 %q", d.url, code, env.Code, client.CodeBadRequest)
		}
	}

	router.stop(t)
	for _, m := range members {
		m.stop(t)
	}
}
