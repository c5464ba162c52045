package main

// metric names one reported number, its unit, and which direction is
// better. BENCHMARK.json at the repository root declares the same lists;
// the smoke test keeps the two in step.
type metric struct {
	name, unit, better string
}

// endToEnd is what an untraced run reports: what a user of the library or
// of mpcserve sees. An op is one MPC job, or one HTTP request on
// serve-mix. None of these can read 0. heap_live_mb_p90 is the 90th
// percentile, over the GC cycles of the timed window, of the heap found
// live: the resident set moved by up to 8% between runs with the host's
// speed, and its high-water mark by 20%. Op wall time is not among them: the
// host's speed drifts by more than any bound it could hold (see README.md),
// so it is the per-layer bench.op_ms_p50.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"heap_live_mb_p90", "MB", "lower"},
}

// The six partition layers split an op's wall time on the driver
// goroutine into consecutive intervals (see ledger.go); they sum to it.
const (
	layerDriver = iota
	layerAdmit
	layerExec
	layerExchange
	layerShuffle
	layerSave
	numLayers
)

var layerNames = [numLayers]string{
	"core.driver_ms",
	"mpc.admit_ms",
	"mpc.exec_ms",
	"transport.exchange_ms",
	"mpc.shuffle_ms",
	"checkpoint.save_ms",
}

// phases are the paper phases whose machine spans are reported apart.
var phases = []string{"candidates", "graph", "chain"}

// perLayer is what a traced run reports, per op unless the unit says
// otherwise. A layer that is not on a workload's path reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var ms []metric
	for _, name := range layerNames {
		ms = append(ms, metric{name, "ms", "lower"})
	}
	ms = append(ms,
		metric{"core.clusters", "count", "lower"},
		metric{"mpc.rounds", "count", "lower"},
		metric{"mpc.machine_runs", "count", "lower"},
		metric{"mpc.queue_wait_ms", "ms", "lower"},
		metric{"mpc.busy_frac", "fraction", "higher"},
		metric{"mpc.straggler_max", "ratio", "lower"},
	)
	for _, p := range phases {
		ms = append(ms,
			metric{"phase." + p + ".cpu_ms", "ms", "lower"},
			metric{"phase." + p + ".ns_per_op", "ns/op", "lower"},
		)
	}
	for _, k := range kernels {
		ms = append(ms,
			metric{"kernel." + k.name + ".ns", "ns", "lower"},
			metric{"kernel." + k.name + ".allocs", "count", "lower"},
			metric{"kernel." + k.name + ".ns_per_op", "ns/op", "lower"},
		)
	}
	ms = append(ms,
		metric{"transport.exchanges", "count", "lower"},
		metric{"transport.frames", "count", "lower"},
		metric{"transport.wire_kb", "KB", "lower"},
		metric{"checkpoint.saves", "count", "lower"},
		metric{"checkpoint.flushes", "count", "lower"},
		metric{"checkpoint.kb", "KB", "lower"},
		metric{"server.cache_hit_frac", "fraction", "higher"},
		metric{"server.hit_ms_p50", "ms", "lower"},
		metric{"server.distance_ms_p50", "ms", "lower"},
		metric{"server.batch_ms_p50", "ms", "lower"},
		metric{"server.compute_ms_p50", "ms", "lower"},
		metric{"server.overhead_ms_p50", "ms", "lower"},
		metric{"bench.op_ms_p50", "ms", "lower"},
		metric{"bench.trace_overhead_frac", "fraction", "lower"},
		metric{"host.calib_ms", "ms", "lower"},
	)
	return ms
}
