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
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"cmpqos/internal/cli"
	"cmpqos/internal/fault"
	"cmpqos/internal/load"
)

const prog = "qosload"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main on explicit arguments and streams: it returns the exit
// code instead of exiting, so a test can check a usage error in process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url       = fs.String("url", "http://127.0.0.1:8723", "base URL of the daemon")
		n         = fs.Int("n", 1000, "total submissions")
		conc      = fs.Int("c", 8, "concurrent workers")
		mix       = fs.String("mix", "strict,elastic,opportunistic", "comma-separated modes to rotate through")
		cores     = fs.Int("cores", 1, "cores per request")
		ways      = fs.Int("ways", 4, "L2 ways per request")
		tw        = fs.Int64("tw", 1_000_000, "cycles reserved per admission")
		deadline  = fs.Int64("deadline-in", 4_000_000_000, "cycles from arrival to deadline")
		cancel    = fs.Bool("cancel", true, "cancel each admission immediately (steady-state churn; required for sustained load)")
		retries   = fs.Int("retries", 3, "extra attempts after a shed or transport failure")
		waitMS    = fs.Int64("wait-ms", 50, "per-request queue-wait budget sent to the daemon")
		timeout   = fs.Duration("timeout", 5*time.Second, "per-attempt HTTP timeout")
		seed      = fs.Int64("seed", 1, "seed for backoff jitter and chaos kill times")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON")
		negotiate = fs.Bool("negotiate", false, "opt submissions in to the daemon's mode ladder")

		chaos = fs.Bool("chaos", false, "supervise a daemon and SIGKILL it mid-load")
		qosd  = fs.String("qosd", "", "with -chaos: path to the qosd binary")
		dir   = fs.String("dir", "", "with -chaos: daemon state directory")
		addr  = fs.String("addr", "127.0.0.1:8723", "with -chaos: daemon listen address")
		kills = fs.Int("kills", 2, "with -chaos: SIGKILLs over the run")
		dargs = fs.String("qosd-args", "", "with -chaos: extra space-separated qosd flags")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return cli.ExitOK
		}
		return cli.ExitUsage
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return code
	}

	cases, err := buildCases(*mix, *cores, *ways, *tw, *deadline, *negotiate)
	if err != nil {
		return fail(cli.ExitUsage, err)
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
		if *qosd == "" || *dir == "" {
			return fail(cli.ExitUsage, errors.New("-chaos needs -qosd and -dir"))
		}
		d := &daemon{bin: *qosd, base: "http://" + *addr, stderr: stderr,
			args: append([]string{"-addr", *addr, "-dir", *dir}, strings.Fields(*dargs)...)}
		defer d.kill()
		rep, err := runChaos(d, cases, cfg, *kills, *seed, stderr)
		if err != nil {
			return fail(cli.ExitFailure, err)
		}
		printReport(stdout, rep, *jsonOut)
		return exitFor(rep)
	}

	rep, err := load.Run(context.Background(), cases, cfg)
	if err != nil {
		return fail(cli.ExitFailure, err)
	}
	printReport(stdout, rep, *jsonOut)
	return exitFor(rep)
}

// buildCases turns -mix into one case per mode; an empty mix or an
// unknown mode is an error.
func buildCases(mix string, cores, ways int, tw, deadline int64, negotiate bool) ([]load.Case, error) {
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
			return nil, fmt.Errorf("unknown mode %q in -mix", m)
		}
		cases = append(cases, c)
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("empty -mix %q", mix)
	}
	return cases, nil
}

// exitFor maps a report to the documented exit codes: 4 when the
// daemon refused or never answered everything, 0 otherwise.
func exitFor(rep *load.Report) int {
	if rep.Admitted == 0 && rep.Rejected == 0 && rep.Shed+rep.Unavailable > 0 {
		return cli.ExitUnavailable
	}
	return cli.ExitOK
}

func printReport(w io.Writer, rep *load.Report, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
		return
	}
	fmt.Fprintf(w, "ran %v: %d admitted (%.1f/s), %d rejected, %d shed, %d unavailable, %d conflicts\n",
		rep.Duration.Round(time.Millisecond), rep.Admitted, rep.AdmitPerSec,
		rep.Rejected, rep.Shed, rep.Unavailable, rep.Conflicts)
	fmt.Fprintln(w, "case            sent  admit  degr  rej   shed  unavail      p50      p99     p999")
	for _, c := range rep.Cases {
		fmt.Fprintf(w, "%-15s %5d  %5d %5d %4d  %5d  %7d  %7s  %7s  %7s\n",
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

// daemon supervises one qosd process. Only the goroutine that runs
// the chaos schedule touches it.
type daemon struct {
	bin, base string // the binary and its http://addr
	args      []string
	stderr    io.Writer
	cmd       *exec.Cmd
}

// kill SIGKILLs the daemon: no drain, no flush beyond the WAL.
func (d *daemon) kill() {
	if d.cmd != nil && d.cmd.Process != nil {
		d.cmd.Process.Kill()
	}
}

// restart kills the running daemon, if any, starts a fresh one on the
// same state directory and waits until it answers /healthz.
func (d *daemon) restart() error {
	d.kill()
	d.cmd = exec.Command(d.bin, d.args...)
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		return err
	}
	go d.cmd.Wait() // reap; exit status is irrelevant (we SIGKILL it)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("daemon at %s not healthy within 10s", d.base)
}

// runChaos runs the load against d, SIGKILLing and restarting it at
// seeded instants and once more at the end, then audits the recovered
// daemon against every acked grant.
func runChaos(d *daemon, cases []load.Case, cfg load.Config, kills int, seed int64, stderr io.Writer) (*load.Report, error) {
	cfg.BaseURL = d.base
	if err := d.restart(); err != nil {
		return nil, err
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
killing:
	for _, at := range schedule {
		select {
		case <-done:
			break killing
		case <-time.After(time.Until(start.Add(at))):
		}
		fmt.Fprintf(stderr, "%s: chaos: SIGKILL daemon at t=%v\n", prog, time.Since(start).Round(time.Millisecond))
		if err := d.restart(); err != nil {
			return nil, err
		}
	}
	<-done
	if runErr != nil {
		return nil, runErr
	}

	// One final crash+recovery before the audit: whatever the daemon
	// holds now must be exactly what the WAL can reproduce.
	if err := d.restart(); err != nil {
		return nil, err
	}
	if err := auditGrants(d.base, rep.Grants); err != nil {
		return nil, fmt.Errorf("chaos audit FAILED: %w", err)
	}
	live := 0
	for _, g := range rep.Grants {
		if !g.Cancelled {
			live++
		}
	}
	fmt.Fprintf(stderr, "%s: chaos audit ok: %d acked grants (%d live) all survived %d kills, no double admissions\n",
		prog, len(rep.Grants), live, kills+1)
	return rep, nil
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
