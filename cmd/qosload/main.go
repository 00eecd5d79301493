// Command qosload is the speedtest-style load harness for the qosd
// admission daemon: it fires a configurable mix of submissions from a
// concurrent worker pool (with retry, exponential backoff, and jitter),
// then reports admission throughput and tail latency per case.
//
//	qosload -url http://127.0.0.1:8723 -n 2000 -c 16
//
// Chaos mode supervises its own daemon and SIGKILLs it mid-load at
// seeded, reproducible instants, restarting it on the same state
// directory each time:
//
//	qosload -chaos -qosd ./qosd -dir /tmp/qosd-state -n 2000 -kills 3
//
// After the run it audits the recovered daemon against every
// acknowledged grant: a grant the client holds an ack for must still be
// admitted (same node, same reservation) unless it was cancelled, and
// no job may be admitted twice. Exit code 4 (unavailable) means the
// daemon refused or never answered the entire run — distinct from a
// harness failure (1) or a lost-grant audit failure (also 1, with
// detail on stderr).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"

	"cmpqos/internal/cli"
	"cmpqos/internal/fault"
	"cmpqos/internal/load"
)

const prog = "qosload"

func main() {
	var (
		url       = flag.String("url", "http://127.0.0.1:8723", "base URL of the daemon")
		n         = flag.Int("n", 1000, "total submissions")
		conc      = flag.Int("c", 8, "concurrent workers")
		mix       = flag.String("mix", "strict,elastic,opportunistic", "comma-separated modes to rotate through")
		cores     = flag.Int("cores", 1, "cores per request")
		ways      = flag.Int("ways", 4, "L2 ways per request")
		tw        = flag.Int64("tw", 1_000_000, "cycles reserved per admission")
		deadline  = flag.Int64("deadline-in", 4_000_000_000, "cycles from arrival to deadline")
		cancel    = flag.Bool("cancel", true, "cancel each admission immediately (steady-state churn; required for sustained load)")
		retries   = flag.Int("retries", 3, "extra attempts after a shed or transport failure")
		waitMS    = flag.Int64("wait-ms", 50, "per-request queue-wait budget sent to the daemon")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-attempt HTTP timeout")
		seed      = flag.Int64("seed", 1, "seed for backoff jitter and chaos kill times")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		negotiate = flag.Bool("negotiate", false, "opt submissions in to the daemon's mode ladder")

		chaos = flag.Bool("chaos", false, "supervise a daemon and SIGKILL it mid-load")
		qosd  = flag.String("qosd", "", "with -chaos: path to the qosd binary")
		dir   = flag.String("dir", "", "with -chaos: daemon state directory")
		addr  = flag.String("addr", "127.0.0.1:8723", "with -chaos: daemon listen address")
		kills = flag.Int("kills", 2, "with -chaos: SIGKILLs over the run")
		dargs = flag.String("qosd-args", "", "with -chaos: extra space-separated qosd flags")
	)
	flag.Parse()

	cases := buildCases(*mix, *cores, *ways, *tw, *deadline, *negotiate)
	if len(cases) == 0 {
		cli.Usage(prog, "empty -mix %q", *mix)
	}
	cfg := load.Config{
		BaseURL:     *url,
		Requests:    *n,
		Concurrency: *conc,
		Timeout:     *timeout,
		Retries:     *retries,
		Seed:        *seed,
		Cancel:      *cancel,
		WaitMS:      *waitMS,
	}

	if *chaos {
		runChaos(cases, cfg, *qosd, *dir, *addr, *kills, *seed, *dargs, *jsonOut)
		return
	}

	rep, err := load.Run(context.Background(), cases, cfg)
	if err != nil {
		cli.Fail(prog, err)
	}
	printReport(rep, *jsonOut)
	os.Exit(exitFor(rep))
}

func buildCases(mix string, cores, ways int, tw, deadline int64, negotiate bool) []load.Case {
	var cases []load.Case
	for _, m := range strings.Split(mix, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		c := load.Case{Name: m, Mode: m, Cores: cores, Ways: ways, Negotiate: negotiate}
		switch m {
		case "strict":
			c.TW, c.DeadlineIn = tw, deadline
		case "elastic":
			c.Slack, c.TW, c.DeadlineIn = 0.05, tw, deadline
		case "opportunistic":
			// Scavenger: no reservation, no deadline.
		default:
			cli.Usage(prog, "unknown mode %q in -mix", m)
		}
		cases = append(cases, c)
	}
	return cases
}

// exitFor maps a report to the documented exit codes: 4 when the
// daemon refused or never answered everything, 0 otherwise.
func exitFor(rep *load.Report) int {
	if rep.Admitted == 0 && rep.Rejected == 0 && rep.Shed+rep.Unavailable > 0 {
		return cli.ExitUnavailable
	}
	return cli.ExitOK
}

func printReport(rep *load.Report, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
		return
	}
	fmt.Printf("ran %v: %d admitted (%.1f/s), %d rejected, %d shed, %d unavailable, %d conflicts\n",
		rep.Duration.Round(time.Millisecond), rep.Admitted, rep.AdmitPerSec,
		rep.Rejected, rep.Shed, rep.Unavailable, rep.Conflicts)
	fmt.Println("case            sent  admit  degr  rej   shed  unavail      p50      p99     p999")
	for _, c := range rep.Cases {
		fmt.Printf("%-15s %5d  %5d %5d %4d  %5d  %7d  %7s  %7s  %7s\n",
			c.Name, c.Sent, c.Admitted, c.Degraded, c.Rejected, c.Shed, c.Unavailable,
			shortDur(c.P50), shortDur(c.P99), shortDur(c.P999))
	}
}

func shortDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Microsecond).String()
}

// ---- chaos mode ----

// daemon supervises one qosd process.
type daemon struct {
	bin, dir, addr string
	extra          []string
	mu             sync.Mutex
	cmd            *exec.Cmd
}

func (d *daemon) start() error {
	args := append([]string{"-addr", d.addr, "-dir", d.dir}, d.extra...)
	cmd := exec.Command(d.bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	go cmd.Wait() // reap; exit status is irrelevant (we SIGKILL it)
	d.mu.Lock()
	d.cmd = cmd
	d.mu.Unlock()
	return nil
}

func (d *daemon) kill() {
	d.mu.Lock()
	cmd := d.cmd
	d.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill() // SIGKILL: no drain, no flush beyond the WAL
	}
}

func waitHealthy(base string, within time.Duration) error {
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("daemon at %s not healthy within %v", base, within)
}

func runChaos(cases []load.Case, cfg load.Config, bin, dir, addr string, kills int, seed int64, extraArgs string, asJSON bool) {
	if bin == "" || dir == "" {
		cli.Usage(prog, "-chaos needs -qosd and -dir")
	}
	base := "http://" + addr
	cfg.BaseURL = base
	d := &daemon{bin: bin, dir: dir, addr: addr, extra: strings.Fields(extraArgs)}
	if err := d.start(); err != nil {
		cli.Fail(prog, err)
	}
	defer d.kill()
	if err := waitHealthy(base, 10*time.Second); err != nil {
		cli.Fail(prog, err)
	}

	// Estimate the load duration from a conservative per-request cost so
	// the seeded kill schedule lands inside the run.
	horizon := time.Duration(cfg.Requests/max(1, cfg.Concurrency)) * 2 * time.Millisecond
	if horizon < time.Second {
		horizon = time.Second
	}
	schedule := fault.KillTimes(seed, kills, horizon)

	done := make(chan struct{})
	var rep *load.Report
	var runErr error
	start := time.Now()
	go func() {
		defer close(done)
		rep, runErr = load.Run(context.Background(), cases, cfg)
	}()
	for _, at := range schedule {
		select {
		case <-done:
		case <-time.After(time.Until(start.Add(at))):
		}
		if isDone(done) {
			break
		}
		fmt.Fprintf(os.Stderr, "%s: chaos: SIGKILL daemon at t=%v\n", prog, time.Since(start).Round(time.Millisecond))
		d.kill()
		if err := d.start(); err != nil {
			cli.Fail(prog, err)
		}
		if err := waitHealthy(base, 10*time.Second); err != nil {
			cli.Fail(prog, err)
		}
	}
	<-done
	if runErr != nil {
		cli.Fail(prog, runErr)
	}

	// One final crash+recovery before the audit: whatever the daemon
	// holds now must be exactly what the WAL can reproduce.
	d.kill()
	if err := d.start(); err != nil {
		cli.Fail(prog, err)
	}
	if err := waitHealthy(base, 10*time.Second); err != nil {
		cli.Fail(prog, err)
	}
	if err := auditGrants(base, rep.Grants); err != nil {
		d.kill()
		fmt.Fprintf(os.Stderr, "%s: chaos audit FAILED: %v\n", prog, err)
		os.Exit(cli.ExitFailure)
	}
	// os.Exit below skips the deferred kill; stop the daemon explicitly.
	d.kill()
	live := 0
	for _, g := range rep.Grants {
		if !g.Cancelled {
			live++
		}
	}
	fmt.Fprintf(os.Stderr, "%s: chaos audit ok: %d acked grants (%d live) all survived %d kills, no double admissions\n",
		prog, len(rep.Grants), live, kills+1)
	printReport(rep, asJSON)
	os.Exit(exitFor(rep))
}

func isDone(done chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// auditGrants cross-checks the client's acked grants against the
// recovered daemon's snapshot: acked live grants must still be admitted
// on the same node under the same reservation, cancelled ones must be
// gone, and no job may appear twice.
func auditGrants(base string, grants []load.Grant) error {
	resp, err := http.Get(base + "/v1/snapshot")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var snap struct {
		Jobs map[string]struct {
			Node  int `json:"node"`
			ResID int `json:"res_id"`
		} `json:"jobs"`
		Nodes []struct {
			Reservations []struct {
				ID    int `json:"ID"`
				JobID int `json:"JobID"`
			} `json:"reservations"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("decoding snapshot: %w", err)
	}
	resCount := map[[2]int]int{} // (node, resID) -> count
	jobRes := map[int][]int{}    // jobID -> reservation IDs anywhere
	for ni, node := range snap.Nodes {
		for _, r := range node.Reservations {
			resCount[[2]int{ni, r.ID}]++
			jobRes[r.JobID] = append(jobRes[r.JobID], r.ID)
		}
	}
	sort.Slice(grants, func(i, j int) bool { return grants[i].JobID < grants[j].JobID })
	for _, g := range grants {
		e, live := snap.Jobs[fmt.Sprint(g.JobID)]
		if g.Cancelled {
			if live {
				return fmt.Errorf("job %d: cancel was acked but the job is still admitted", g.JobID)
			}
			continue
		}
		if !live {
			if g.CancelUnknown {
				// The cancel's answer was lost mid-crash; it may have been
				// logged before the kill, so "gone" is a legal outcome.
				continue
			}
			return fmt.Errorf("job %d: grant (node %d, res %d) was acked but lost in recovery", g.JobID, g.Node, g.ResID)
		}
		if e.Node != g.Node || e.ResID != g.ResID {
			return fmt.Errorf("job %d: acked on node %d res %d, recovered on node %d res %d",
				g.JobID, g.Node, g.ResID, e.Node, e.ResID)
		}
		if g.ResID != 0 {
			// The reservation may have aged out of the timeline (its window
			// passed and was pruned) — absence is legal, duplication never.
			if c := resCount[[2]int{g.Node, g.ResID}]; c > 1 {
				return fmt.Errorf("job %d: reservation %d on node %d appears %d times", g.JobID, g.ResID, g.Node, c)
			}
			if len(jobRes[g.JobID]) > 1 {
				return fmt.Errorf("job %d: double-admitted — %d reservations: %v", g.JobID, len(jobRes[g.JobID]), jobRes[g.JobID])
			}
		}
	}
	return nil
}
