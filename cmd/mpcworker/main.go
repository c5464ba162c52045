// Command mpcworker joins a running coordinator as one worker process of
// a distributed MPC session. mpcdist -transport tcp spawns its workers
// automatically by re-executing itself, so this binary exists for running
// workers by hand — on another terminal, under a debugger, or on another
// machine reachable over TCP:
//
//	mpcworker -addr 127.0.0.1:4732
//	mpcworker -addr 127.0.0.1:4732 -status 127.0.0.1:8082
//
// The worker registers with the coordinator, executes its share of every
// round's machines, and exits when the session shuts down. It takes no
// transport flags: the heartbeat interval, peer deadline and rejoin grace
// are set on the coordinator, and the worker adopts them from the
// handshake's welcome frame. With -status it also serves a live JSON
// snapshot of its view of the session (exchange progress,
// coordinator-link wire counters, heartbeat RTT) at http://ADDR/status
// for the session's lifetime.
package main

import (
	"flag"
	"fmt"
	"os"

	"mpcdist/internal/buildinfo"
	"mpcdist/internal/dist"
	"mpcdist/internal/netchaos"
	"mpcdist/internal/traceio"
	"mpcdist/internal/transport"
)

func main() {
	dist.MaybeWorkerMain()
	addr := flag.String("addr", "", "coordinator address (host:port) to join")
	statusAddr := flag.String("status", "", "serve a live JSON worker snapshot at this address (host:port)")
	chaosPlan := netchaos.BindFlags(flag.CommandLine)
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("mpcworker"))
		return
	}
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "mpcworker: -addr is required")
		flag.Usage()
		os.Exit(2)
	}
	var opts transport.Options
	// A hand-run worker can degrade its own link deterministically — the
	// coordinator side stays clean, but read-path corruption still
	// perturbs both directions of this worker's traffic.
	if chaos := chaosPlan(); chaos != nil {
		fmt.Fprintf(os.Stderr, "mpcworker: link chaos active: %s\n", chaos)
		opts.WrapConn = netchaos.New(chaos).Wrap
	}
	// SIGQUIT (or MPCDIST_FLIGHT_OUT at exit) dumps this worker's flight
	// recorder — its own lane of recent rounds, attributed to the party
	// the coordinator's handshake assigns.
	flightDump := traceio.ArmFlight("mpcworker")
	code := dist.WorkerMainOptions(*addr, *statusAddr, opts)
	flightDump()
	os.Exit(code)
}
