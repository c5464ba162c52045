// Command mpctop is a polling terminal dashboard for a running cluster:
// point it at the status endpoints the other commands serve and it renders
// a live view of where every party is, what the wire looks like, and what
// the flight recorder has retained — without touching the deterministic
// run it watches.
//
// Usage:
//
//	mpctop -status http://127.0.0.1:8081                # mpcdist -status, mpcserve -ops
//	mpctop -status http://a:8081,http://b:8198          # several endpoints at once
//	mpctop -metrics http://127.0.0.1:8080               # mpcserve /metrics
//	mpctop -status http://127.0.0.1:8081 -once          # one frame, no clear
//
// Each -status base URL is polled at /status (transport.Status: role,
// round, seq, liveness, wire counters, per-peer heartbeat RTT p99) and
// /flight (recorder stats: retained events, round-latency p50/p95/p99);
// the -metrics base URL at /metrics?format=json (request/degrade/shed
// counters, per-party ops/comm/queue-wait attribution of distributed runs).
//
// Everything shown is advisory host-level state; mpctop only issues GETs
// against endpoints that never influence the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"mpcdist/internal/buildinfo"
	"mpcdist/internal/dist"
	"mpcdist/internal/server"
	"mpcdist/internal/trace"
)

func main() {
	statusList := flag.String("status", "", "comma-separated base URLs of status endpoints (mpcdist -status, mpcserve -ops)")
	metricsURL := flag.String("metrics", "", "base URL of an mpcserve /metrics endpoint")
	interval := flag.Duration("interval", time.Second, "poll interval")
	once := flag.Bool("once", false, "render a single frame and exit (no screen clearing)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("mpctop"))
		return
	}

	var statuses []string
	for _, s := range strings.Split(*statusList, ",") {
		if s = strings.TrimSpace(s); s != "" {
			statuses = append(statuses, strings.TrimRight(s, "/"))
		}
	}
	if len(statuses) == 0 && *metricsURL == "" {
		fmt.Fprintln(os.Stderr, "mpctop: need at least one of -status or -metrics")
		flag.Usage()
		os.Exit(2)
	}

	client := &http.Client{Timeout: *interval}
	if client.Timeout < time.Second {
		client.Timeout = time.Second
	}
	for {
		fr := poll(client, statuses, strings.TrimRight(*metricsURL, "/"))
		fr.At = time.Now()
		fr.Interval = *interval
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(os.Stdout, fr)
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// statusSample is one -status endpoint's poll result. Flight is nil when
// the endpoint predates the recorder or the fetch failed (the dashboard
// degrades to the transport view alone). Status decodes as the superset
// shape: coordinators running with -checkpoint-dir attach a "checkpoint"
// object, workers and plain sessions simply leave it nil.
type statusSample struct {
	URL    string
	Err    error
	Status dist.StatusWithCheckpoint
	Flight *trace.FlightStats
}

// metricsSample is the mpcserve /metrics?format=json poll result.
type metricsSample struct {
	URL  string
	Err  error
	Snap server.Snapshot
}

// frame is everything one render needs; poll fills it, render draws it.
// The split keeps render a pure function of its input, which is what the
// tests exercise.
type frame struct {
	At       time.Time
	Interval time.Duration
	Statuses []statusSample
	Metrics  *metricsSample
}

func poll(client *http.Client, statuses []string, metricsURL string) frame {
	var fr frame
	for _, base := range statuses {
		s := statusSample{URL: base}
		s.Err = getJSON(client, base+"/status", &s.Status)
		if s.Err == nil {
			var fs trace.FlightStats
			if err := getJSON(client, base+"/flight", &fs); err == nil {
				s.Flight = &fs
			}
		}
		fr.Statuses = append(fr.Statuses, s)
	}
	if metricsURL != "" {
		m := &metricsSample{URL: metricsURL}
		m.Err = getJSON(client, metricsURL+"/metrics?format=json", &m.Snap)
		fr.Metrics = m
	}
	return fr
}

// payloadError reports a response body that was not exactly one JSON
// document — truncated, garbled, or carrying trailing bytes. A bare
// json.Decoder.Decode would accept a valid prefix and silently discard
// the rest, so a half-written or corrupted status response could render
// as a healthy frame; mpctop instead surfaces it as an endpoint error.
type payloadError struct {
	URL string
	Err error
}

func (e *payloadError) Error() string { return fmt.Sprintf("%s: bad payload: %v", e.URL, e.Err) }
func (e *payloadError) Unwrap() error { return e.Err }

// maxPayload bounds how much of a status response mpctop will buffer;
// the real endpoints emit a few KB, so 10MB means "something is wrong".
const maxPayload = 10 << 20

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPayload))
	if err != nil {
		return &payloadError{URL: url, Err: err}
	}
	// Unmarshal, unlike Decode, rejects trailing bytes after the document.
	if err := json.Unmarshal(body, v); err != nil {
		return &payloadError{URL: url, Err: err}
	}
	return nil
}

func render(w io.Writer, fr frame) {
	fmt.Fprintf(w, "mpctop — %s  (poll %s)\n", fr.At.Format("15:04:05"), fr.Interval)
	for _, s := range fr.Statuses {
		renderStatus(w, s)
	}
	if fr.Metrics != nil {
		renderMetrics(w, *fr.Metrics)
	}
}

func renderStatus(w io.Writer, s statusSample) {
	fmt.Fprintf(w, "\nSESSION %s\n", s.URL)
	if s.Err != nil {
		fmt.Fprintf(w, "  unreachable: %v\n", s.Err)
		return
	}
	st := s.Status
	grace := ""
	if st.RejoinGraceMs > 0 {
		grace = fmt.Sprintf(" grace=%s", msStr(st.RejoinGraceMs))
	}
	fmt.Fprintf(w, "  %s party %d/%d — round %d %q phase=%s seq=%d alive=%d/%d%s\n",
		st.Role, st.Self, st.Parties, st.Round, st.Name, st.Phase, st.Seq, st.Alive, st.Parties, grace)
	fmt.Fprintf(w, "  wire: out=%s in=%s frames=%d exchanges=%d peersLost=%d reassigns=%d reconnects=%d corrupt=%d\n",
		bytesStr(st.Wire.BytesOut), bytesStr(st.Wire.BytesIn),
		st.Wire.Frames, st.Wire.Exchanges, st.Wire.PeersLost, st.Wire.Reassigns,
		st.Wire.Reconnects, st.Wire.CorruptFrames)
	if c := st.Checkpoint; c != nil {
		fmt.Fprintf(w, "  checkpoint: job=%.12s steps=%d (resumed %d, saved %d) last=round %d %s — store %d blobs %s\n",
			c.Job, c.Steps, c.Resumed, c.Saves, c.LastRound, c.LastName, c.StoreBlobs, bytesStr(c.StoreBytes))
	}
	if f := s.Flight; f != nil && f.Enabled {
		fmt.Fprintf(w, "  flight: rounds p50=%.2fms p95=%.2fms p99=%.2fms (window %d) — retained %d rounds, %d spans, %d faults, %d transport; %d events, %d lanes\n",
			f.Latency.P50Ms, f.Latency.P95Ms, f.Latency.P99Ms, f.Latency.Window,
			f.Rounds, f.Spans, f.Faults, f.Transport, f.Events, f.Parties)
	}
	if len(st.Peers) > 0 {
		fmt.Fprintf(w, "  %5s %5s %10s %10s %8s %9s %10s %6s %7s\n",
			"PEER", "ALIVE", "IN", "OUT", "FRAMES", "RTTp99", "LASTHEARD", "RECONN", "CORRUPT")
		for _, p := range st.Peers {
			alive := "yes"
			if !p.Alive {
				alive = "DEAD"
			}
			last := "-"
			if p.LastHeardMs >= 0 {
				last = fmt.Sprintf("%.0fms", p.LastHeardMs)
			}
			fmt.Fprintf(w, "  %5d %5s %10s %10s %8d %8.2fms %10s %6d %7d\n",
				p.Party, alive, bytesStr(p.BytesIn), bytesStr(p.BytesOut), p.Frames, p.RTTP99Ms, last,
				p.Reconnects, p.CorruptFrames)
		}
	}
}

func renderMetrics(w io.Writer, m metricsSample) {
	fmt.Fprintf(w, "\nSERVER %s\n", m.URL)
	if m.Err != nil {
		fmt.Fprintf(w, "  unreachable: %v\n", m.Err)
		return
	}
	sn := m.Snap
	fmt.Fprintf(w, "  up %s — %d requests (%d errors, %d timeouts, %d degraded, %d shed, %d batches)\n",
		(time.Duration(sn.UptimeSeconds) * time.Second).String(),
		sn.Requests, sn.Errors, sn.Timeouts, sn.Degraded, sn.Shed, sn.Batches)
	if tr := sn.Transport; tr != nil {
		fmt.Fprintf(w, "  cluster: alive=%d/%d wire out=%s in=%s peersLost=%d reassigns=%d reconnects=%d corrupt=%d\n",
			tr.Alive, tr.Workers+1, bytesStr(tr.Wire.BytesOut), bytesStr(tr.Wire.BytesIn),
			tr.Wire.PeersLost, tr.Wire.Reassigns, tr.Wire.Reconnects, tr.Wire.CorruptFrames)
	}
	if c := sn.Checkpoint; c != nil {
		fmt.Fprintf(w, "  checkpoint: saved=%d resumed=%d written=%s — store %d blobs %s\n",
			c.Saves, c.ResumedSteps, bytesStr(c.BytesWritten), c.StoreBlobs, bytesStr(c.StoreBytes))
	}
	if len(sn.Algorithms) > 0 {
		names := make([]string, 0, len(sn.Algorithms))
		for name := range sn.Algorithms {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  %-12s %8s %8s %6s %10s %10s %12s %12s\n",
			"ALGO", "REQ", "HIT", "ERR", "p50", "max", "OPS", "COMM")
		for _, name := range names {
			a := sn.Algorithms[name]
			fmt.Fprintf(w, "  %-12s %8d %8d %6d %10s %10s %12d %12d\n",
				name, a.Requests, a.CacheHits, a.Errors,
				msStr(histP50(a.Latency, sn.LatencyBuckets)), msStr(a.Latency.MaxMs),
				a.TotalOps, a.TotalComm)
		}
	}
	if len(sn.Workers) > 0 {
		parties := make([]int, 0, len(sn.Workers))
		for p := range sn.Workers {
			parties = append(parties, p)
		}
		sort.Ints(parties)
		fmt.Fprintf(w, "  %6s %12s %12s %12s %12s %10s\n",
			"PARTY", "MACH-ROUNDS", "OPS", "COMM", "QUEUE-WAIT", "WIRE")
		for _, p := range parties {
			wa := sn.Workers[p]
			fmt.Fprintf(w, "  %6d %12d %12d %12d %12s %10s\n",
				p, wa.MachineRounds, wa.Ops, wa.CommWords, msStr(wa.QueueWaitMs), bytesStr(wa.WireBytes))
		}
	}
}

// histP50 estimates the median from a fixed-bucket histogram: the upper
// bound of the bucket holding the median observation (+Inf renders as the
// recorded max). Coarse by construction — it is a dashboard glance, not a
// measurement.
func histP50(h *server.Histogram, bounds []float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	target := (h.Count + 1) / 2
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if seen >= target {
			if i < len(bounds) {
				return bounds[i]
			}
			return h.MaxMs
		}
	}
	return h.MaxMs
}

func msStr(ms float64) string {
	switch {
	case ms <= 0:
		return "-"
	case ms < 10:
		return fmt.Sprintf("%.2fms", ms)
	case ms < 1000:
		return fmt.Sprintf("%.0fms", ms)
	default:
		return fmt.Sprintf("%.1fs", ms/1000)
	}
}

func bytesStr(b int64) string {
	switch {
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	}
}
