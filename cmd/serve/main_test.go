package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"

	"fekf/internal/guard"
	"fekf/internal/serve"
)

// runMainEnv makes the test binary run main() instead of the tests, so the
// CLI tests drive the real command in a child process.
const runMainEnv = "SERVE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// proc is one child serve process whose combined log output the test
// reads line by line.
type proc struct {
	cmd   *exec.Cmd
	lines chan string
}

// serving matches the line main logs once its listener is up.
const serving = `serving \S+ on (http://\S+) `

func start(t *testing.T, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout, cmd.Stderr = pw, pw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	// The buffer holds a whole run's log, so the reader never blocks the
	// child on a test that stopped reading.
	p := &proc{cmd: cmd, lines: make(chan string, 1024)}
	go func() {
		defer close(p.lines)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
	}()
	t.Cleanup(func() { cmd.Process.Kill() })
	return p
}

// await reads log lines until one matches re and returns its submatches.
func (p *proc) await(t *testing.T, re string) []string {
	t.Helper()
	rx := regexp.MustCompile(re)
	timeout := time.After(90 * time.Second)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("serve exited before logging %q", re)
			}
			if m := rx.FindStringSubmatch(line); m != nil {
				return m
			}
		case <-timeout:
			t.Fatalf("no log line matching %q", re)
		}
	}
}

// stop sends SIGTERM and requires a graceful drain and exit status 0; it
// returns the drained step count and λ.
func (p *proc) stop(t *testing.T) (steps, lambda string) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	m := p.await(t, `drained: (\d+) steps, λ=(\S+),`)
	for range p.lines {
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("serve exited with %v", err)
	}
	return m[1], m[2]
}

// TestServeCLIResume drives the command end to end for each backend: boot
// with the MD client, train to a periodic checkpoint, drain on SIGTERM,
// resume through -resume at the same step and λ, then resume again past a
// corrupted newest generation, which must be quarantined.
func TestServeCLIResume(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"trainer", nil},
		{"fleet", []string{"-replicas", "3"}},
		{"pshard-tcp", []string{"-replicas", "3", "-pshard", "-transport", "tcp"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ck := filepath.Join(t.TempDir(), "ck")
			args := append([]string{"-addr", "127.0.0.1:0", "-checkpoint", ck, "-checkpoint-every", "2",
				"-train-idle", "-mdclient", "-md-frames", "8", "-md-period", "0"}, tc.args...)

			p := start(t, args...)
			base := p.await(t, serving)[1]
			deadline := time.Now().Add(90 * time.Second)
			for {
				var st serve.StatsResponse
				if r, err := http.Get(base + "/v1/stats"); err == nil {
					json.NewDecoder(r.Body).Decode(&st)
					r.Body.Close()
				}
				// The MD client posts a frame and a predict per step of its loop.
				if st.FrameRequests >= 8 && st.PredictRequests >= 8 && st.Steps >= 2 && st.Checkpoints >= 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no training progress: %+v", st)
				}
				time.Sleep(100 * time.Millisecond)
			}
			steps, lambda := p.stop(t)

			p = start(t, append(args, "-resume")...)
			m := p.await(t, `resumed .*: .*step (\d+), λ=(\S+)`)
			if m[1] != steps || m[2] != lambda {
				t.Fatalf("resumed at step %s λ=%s, drained at step %s λ=%s", m[1], m[2], steps, lambda)
			}
			p.await(t, serving)
			steps, _ = p.stop(t)

			gens, err := guard.NewRing(ck, 3).Generations()
			if err != nil || len(gens) < 2 {
				t.Fatalf("checkpoint ring: %v, %d generations", err, len(gens))
			}
			newest := gens[len(gens)-1]
			if err := guard.FlipByte(newest.Path, -1); err != nil {
				t.Fatal(err)
			}
			p = start(t, append(args, "-resume")...)
			p.await(t, `quarantined corrupt checkpoint generation: `+regexp.QuoteMeta(newest.Path))
			m = p.await(t, `resumed .*\(generation (\d+)\): .*step (\d+),`)
			gen, _ := strconv.ParseUint(m[1], 10, 64)
			at, _ := strconv.Atoi(m[2])
			if drained, _ := strconv.Atoi(steps); gen >= newest.Seq || at > drained {
				t.Fatalf("resumed generation %d at step %d past corrupt generation %d (drained at step %s)", gen, at, newest.Seq, steps)
			}
			p.await(t, serving)
			p.stop(t)
			if _, err := os.Stat(newest.Path + ".corrupt"); err != nil {
				t.Fatalf("corrupt generation not set aside: %v", err)
			}
		})
	}
}
