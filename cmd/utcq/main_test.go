package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// cliEnv makes the test binary run main() instead of the tests, so the
// black-box tests drive the real utcq flag parsing and commands without
// building a separate binary.
const cliEnv = "UTCQ_TEST_RUN_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes utcq with args and returns its stdout, stderr and exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestCommands runs each dataset command on a small corpus and requires
// a clean exit and the command's header lines.
func TestCommands(t *testing.T) {
	for _, tc := range []struct {
		cmd     string
		headers []string
	}{
		{"stats", []string{"dataset CD: 20 trajectories", "raw NCUT size:", "network:"}},
		{"compress", []string{"algo ", "UTCQ ", "TED ", "UTCQ: "}},
		{"query", []string{"where(Tu0, ", "when(Tu0, that location, 0.2): "}},
	} {
		t.Run(tc.cmd, func(t *testing.T) {
			out, errOut, code := run(t, "-n", "20", tc.cmd)
			if code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, errOut)
			}
			for _, h := range tc.headers {
				if !hasLinePrefix(out, h) {
					t.Errorf("no line starting %q in output:\n%s", h, out)
				}
			}
		})
	}
}

// TestUnknownCommand requires exit status 2 and a message naming the
// valid commands.
func TestUnknownCommand(t *testing.T) {
	_, errOut, code := run(t, "-n", "20", "bogus")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, `unknown command "bogus"`) {
		t.Fatalf("stderr does not name the unknown command:\n%s", errOut)
	}
}

func hasLinePrefix(out, prefix string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}
