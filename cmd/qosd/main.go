// Command qosd runs the paper's §5 user-level admission controller as a
// long-lived daemon: submissions arrive over HTTP/JSON, every decision
// is write-ahead logged and fsynced before the client sees it, and the
// state directory recovers a kill -9 to the exact pre-crash admission
// state. Under overload the daemon sheds with 503 instead of queueing
// without bound, walking the same degradation ladder the simulator uses
// under faults (scavengers shed first, Strict renegotiated down).
//
// Usage:
//
//	qosd -addr :8723 -dir /var/lib/qosd -cores 4 -ways 16 -nodes 2
//
// SIGINT/SIGTERM drain gracefully: in-flight admissions finish, a final
// snapshot is persisted, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cmpqos/internal/cli"
	"cmpqos/internal/qos"
	"cmpqos/internal/server"
)

const prog = "qosd"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main on explicit arguments and streams: it returns the exit
// code instead of exiting, so a test can check a usage error in process.
// The daemon reports on stderr only; stdout stays empty.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8723", "listen address")
		dir       = fs.String("dir", "", "durable state directory (WAL + snapshots); required")
		cores     = fs.Int("cores", 4, "cores per node (fresh state directories only)")
		ways      = fs.Int("ways", 16, "L2 ways per node (fresh state directories only)")
		nodes     = fs.Int("nodes", 1, "CMP nodes fronted by the global admission controller")
		clock     = fs.String("clock", "2GHz", "node clock for stamping arrivals (e.g. 2GHz)")
		queue     = fs.Int("queue", 256, "admission queue bound; requests beyond it are shed with 503")
		wait      = fs.Duration("wait", 100*time.Millisecond, "cap on any request's queue-wait budget")
		degrade   = fs.Float64("degrade", 0.5, "queue fraction at which the shed ladder starts")
		maxSlack  = fs.Float64("max-slack", 0.05, "Elastic slack offered on the renegotiation rung")
		snapEvery = fs.Int("snapshot-every", 1024, "snapshot and rotate the WAL after this many records")
		walMax    = fs.Int64("wal-max-bytes", 0, "also snapshot and rotate once the WAL exceeds this many bytes (0 = no byte bound)")
		noSync    = fs.Bool("nosync", false, "skip the per-record fsync (benchmarks only: acked admits may be lost to a crash)")
		downgrade = fs.Bool("autodowngrade", false, "enable §3.4 automatic mode downgrade on the nodes")
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
	if *dir == "" {
		return fail(cli.ExitUsage, errors.New("-dir is required"))
	}
	hz, err := cli.ParseClock(*clock)
	if err != nil {
		return fail(cli.ExitUsage, err)
	}

	s, err := server.New(server.Config{
		Dir:           *dir,
		Capacity:      qos.ResourceVector{Cores: *cores, CacheWays: *ways},
		Nodes:         *nodes,
		ClockHz:       hz,
		NoSync:        *noSync,
		SnapshotEvery: *snapEvery,
		WALMaxBytes:   *walMax,
		MaxInflight:   *queue,
		DegradeAt:     *degrade,
		MaxSlack:      *maxSlack,
		MaxWait:       *wait,
		AutoDowngrade: *downgrade,
	})
	if err != nil {
		return fail(cli.ExitFailure, err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(stderr, "%s: serving on %s (state: %s)\n", prog, *addr, *dir)
		errc <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		s.Close()
		return fail(cli.ExitFailure, err)
	case got := <-sig:
		fmt.Fprintf(stderr, "%s: %v — draining\n", prog, got)
	case <-s.Drained():
		// Drained over HTTP (POST /v1/drain): just stop serving.
	}
	drainErr := s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fail(cli.ExitFailure, err)
	}
	if drainErr != nil {
		return fail(cli.ExitFailure, drainErr)
	}
	return cli.ExitOK
}
