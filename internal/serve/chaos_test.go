package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"phelps/internal/sim"
)

// chaosDaemon is one phelpsd subprocess bound to a shared set of durable
// directories (journal, results cache, checkpoint cache).
type chaosDaemon struct {
	t    *testing.T
	bin  string
	dirs string
	cmd  *exec.Cmd
	url  string
}

// buildPhelpsd compiles the real daemon binary once per test run, with the
// race detector when the test itself runs under -race.
func buildPhelpsd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "phelpsd")
	args := []string{"build"}
	if raceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "phelps/cmd/phelpsd")
	cmd := exec.Command("go", args...)
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build phelpsd: %v\n%s", err, out)
	}
	return bin
}

// start boots the daemon on an ephemeral port against the durable dirs and
// waits for the address file.
func startChaosDaemon(t *testing.T, bin, dirs string) *chaosDaemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-workers", "2",
		"-journal-dir", filepath.Join(dirs, "journal"),
		"-cache", filepath.Join(dirs, "results.cache"),
		"-ckpt-dir", filepath.Join(dirs, "ckpts"),
		"-crash-dir", filepath.Join(dirs, "crashes"),
	)
	var logBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logBuf, &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start phelpsd: %v", err)
	}
	d := &chaosDaemon{t: t, bin: bin, dirs: dirs, cmd: cmd}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(data)) > 0 {
			d.url = "http://" + strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("phelpsd never wrote its address; log:\n%s", logBuf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	return d
}

// kill SIGKILLs the daemon — no drain, no cache persist, the crash shape the
// journal exists for.
func (d *chaosDaemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	_, _ = d.cmd.Process.Wait()
}

func (d *chaosDaemon) get(path string, v any) (int, error) {
	resp, err := http.Get(d.url + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// TestChaosKillRestart is the crash-recovery acceptance test: a multi-cell
// job is submitted to a real phelpsd subprocess, the daemon is SIGKILLed at a
// randomized point mid-flight, and a restarted daemon on the same directories
// must finish the job under its original ID with results bit-identical to an
// uninterrupted direct run. Three randomized kill points per run; the seed is
// logged for replay.
func TestChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-restart chaos harness skipped in -short mode")
	}
	t.Parallel()

	workloads := []string{"guarded", "delinquent", "nested"}
	configs := []string{sim.CfgBase, sim.CfgPhelps}
	var specs []sim.Spec
	for _, w := range workloads {
		sp, err := sim.SpecByName(w, true)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	want, err := sim.RunMatrixOpt(specs, configs, sim.MatrixOptions{CrashDir: t.TempDir()})
	if err != nil {
		t.Fatalf("direct matrix: %v", err)
	}

	bin := buildPhelpsd(t)
	seed := time.Now().UnixNano()
	t.Logf("chaos seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	reqBody, err := json.Marshal(JobRequest{Workloads: workloads, Configs: configs, Quick: true})
	if err != nil {
		t.Fatal(err)
	}

	for iter := 0; iter < 3; iter++ {
		iter := iter
		delay := time.Duration(rng.Int63n(int64(120 * time.Millisecond)))
		t.Run(fmt.Sprintf("kill-%d", iter), func(t *testing.T) {
			dirs := t.TempDir()
			d := startChaosDaemon(t, bin, dirs)
			t.Cleanup(d.kill)

			resp, err := http.Post(d.url+API+"/jobs", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			var st JobStatus
			if resp.StatusCode != http.StatusAccepted {
				resp.Body.Close()
				t.Fatalf("submit: %s", resp.Status)
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatalf("decode: %v", err)
			}
			resp.Body.Close()

			// SIGKILL at a randomized point after the ack. The 202 already
			// hit the synced journal, so the job must survive regardless of
			// how far execution got.
			time.Sleep(delay)
			d.kill()
			t.Logf("killed %v after ack (job %s)", delay, st.ID)

			// Restart on the same durable directories.
			d2 := startChaosDaemon(t, bin, dirs)
			t.Cleanup(d2.kill)

			// The resumed job must reach a terminal state under its original
			// ID. (It can only be missing if it both finished and was
			// compacted before the kill — impossible here, since the kill
			// lands well before the multi-cell quick job can complete.)
			var fin JobStatus
			deadline := time.Now().Add(120 * time.Second)
			for {
				code, err := d2.get(API+"/jobs/"+st.ID, &fin)
				if err != nil {
					t.Fatalf("poll: %v", err)
				}
				if code != http.StatusOK {
					t.Fatalf("resumed job %s: HTTP %d (journal lost the 202'd job)", st.ID, code)
				}
				if fin.State != JobRunning {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("resumed job still running: %+v", fin)
				}
				time.Sleep(20 * time.Millisecond)
			}
			if fin.State != JobDone {
				t.Fatalf("resumed job state = %s, want done: %+v", fin.State, fin)
			}

			var jr JobResult
			if code, err := d2.get(API+"/jobs/"+st.ID+"/result", &jr); err != nil || code != http.StatusOK {
				t.Fatalf("result: HTTP %d err %v", code, err)
			}
			if len(jr.Cells) != len(workloads)*len(configs) {
				t.Fatalf("resumed job has %d cells, want %d", len(jr.Cells), len(workloads)*len(configs))
			}
			for _, c := range jr.Cells {
				w := want[c.Workload][c.Config]
				if c.Result == nil {
					t.Fatalf("%s/%s: no result after resume", c.Workload, c.Config)
				}
				if c.Result.Cycles != w.Cycles || c.Result.Retired != w.Retired || c.Result.Mispredicts != w.Mispredicts {
					t.Errorf("%s/%s: resumed result not bit-identical to uninterrupted run", c.Workload, c.Config)
				}
			}

			// The journal surfaces in healthz and eventually compacts the
			// finished job away.
			var hz Healthz
			if code, err := d2.get(API+"/healthz", &hz); err != nil || code != http.StatusOK {
				t.Fatalf("healthz: HTTP %d err %v", code, err)
			}
			if hz.Journal == nil {
				t.Error("healthz missing journal stats with -journal-dir set")
			} else if hz.Journal.Degraded {
				t.Errorf("journal degraded after clean recovery: %+v", hz.Journal)
			}
		})
	}
}
