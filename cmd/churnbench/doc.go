// Command churnbench is churnnet's benchmark: four workloads that measure
// the paper's two claims, flooding to completion and expansion at any
// time, through the layers that implement them, plus the churnd server.
// Every workload checks its outputs against the repository's oracles, and
// BENCHMARK.json at the repository root lists its metrics with their
// regression bounds.
//
// # Running it
//
// From the repository root, with one workload per run:
//
//	sh cmd/churnbench/run.sh --workload flood-1m --seed 1 --seconds 20 --trace 0
//	go run ./cmd/churnbench --workload serve-1m --seed 7 --trace 1 --spans spans.json
//	go run ./cmd/churnbench --workload traffic-burst64 --scale smoke --seconds 1
//
// run.sh builds the command into .bench_build/, with the Go build cache
// there too, and runs it. --seed generates every input: the model of each
// repetition, the traffic sources and the serve clients' scripts.
// --seconds is the measured time: the repetitions of set-up and operation
// for the first three workloads, the timed load for serve-1m, whose set-up
// and warm-up come first; the oracle checks come on top of it. --scale
// smoke shrinks every network to at most 10^4 nodes for a quick check.
// The exit status is 0 when every check passed, 1 when one failed and 2
// for a bad command line.
//
// The output is one `workload metric value unit` line per metric, comment
// lines (#) with timing detail, and, last, one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"op_ms": {"value": 3286.17, "unit": "ms"}, ...}}
//
// attempted counts broadcasts, messages, observations or requests; failed
// counts undelivered broadcasts and messages, windows in which no tracked
// set qualified, and requests answered other than 200 (429 and 503
// included) or lost in transport.
//
// # Workloads
//
// Every workload starts from a stationary SDGR snapshot
// (core.SampleStationaryPar) and runs the engines on two worker shards,
// with GOMAXPROCS set to 2.
//
//   - flood-1m: one broadcast from the newest node to completion at
//     n = 10^6, d = 21, on a fresh model per repetition (four to six fit in
//     20 seconds). The single-message cut engine does the work; the
//     traffic plane, the tracker and the server are bypassed. This is the
//     paper's headline result at the roadmap's size, the workload where
//     the engine runs at 0.89 of the rescan reference, and the one where a
//     one-lane regression from merging the two cut engines would show.
//     Check: the first repetition, replayed with flood.RunReference on a
//     rebuilt model, must give the identical Result.
//   - traffic-burst64: 64 messages from distinct seeded sources, all
//     injected at round 0 into one flood.Traffic plane at n = 10^5,
//     d = 21, stepped until every message is done and each retired as it
//     finishes. The same cut passes as flood-1m run with 64 lanes, so
//     per-lane sender state dominates here and is absent from flood-1m: a
//     change that amortises lanes should move this workload and leave
//     flood-1m unchanged. Check: eight messages of the first burst, the
//     first and the last among them, replayed one by one with flood.Run,
//     must give identical Results.
//   - expansion-window: attach an expansion.Tracker at n = 10^5, d = 21,
//     then 12 rounds of AdvanceRound plus Observe, with the large-scale
//     configuration of the expansion BENCH record (re-seed every 8
//     rounds, ladder stride 2, BFS cap 2^16, greedy cap 1024). The cost is
//     attach, hook fan-out, flush and re-seed; no flooding work runs.
//     Check: in the first repetition, every tracked set against a rescan
//     after rounds 1, 6 and 12.
//   - serve-1m: the churnd server in process on loopback HTTP at
//     n = 10^6, d = 20, publishing after every write (MinPublishInterval
//     0). Set-up builds the server three times (the median counts) and
//     steps one broadcast to completion, so the plane holds one finished
//     message; a broadcast still in flight made throughput swing fourfold
//     between runs. Two closed-loop keep-alive clients, each waiting for
//     its reply, run seeded scripts of about 70% GET /node-info, 10% GET
//     /status/0, 10% /join, 9% /leave of their own nodes and 1% /step: two
//     seconds untimed, then the measured seconds. Writes pay a per-publish
//     copy of the state while reads hit the snapshot, so a publish change
//     that slows reads shows in the same run. Check: the final snapshot
//     through serve.VerifySnapshot.
//
// # End-to-end metrics
//
// The untraced run (--trace 0) reports these on every workload. An
// operation is a broadcast (flood-1m), a burst (traffic-burst64), a window
// including attach (expansion-window) or a write request: join, leave or
// step (serve-1m). Reads take tens of microseconds, so their median moves
// with scheduling noise; their timings are in the comment lines.
//
//	metric           unit  better  meaning
//	setup_s          s     lower   median set-up: every model sampling in the run; for serve-1m,
//	                               serve.New plus the pre-step
//	op_ms            ms    lower   median operation time: flood_s, burst time, track_window_s,
//	                               write latency
//	done_per_s       1/s   higher  median rate of completed broadcasts, delivered messages or
//	                               observations per operation; for serve-1m, of requests
//	                               answered 200 per tenth of the measured time
//	peak_heap_mb     MB    lower   median over operations of the peak live heap during the
//	                               operation and its set-up (serve-1m: the last set-up and the
//	                               load), sampled every 10ms with runtime/metrics, which does not
//	                               stop the world
//	alloc_mb_per_op  MB    lower   median bytes allocated per operation
//
// Every time and rate is scaled to a reference machine speed by the probe
// of probe.go, timed before every set-up: a pointer chase through a table
// larger than the last-level cache and a write to every page of freshly
// mapped memory, the two costs the workloads are bound by. On the shared
// two-core host the benchmark was defined on, the same broadcast took
// 2.6 s one minute and 4.1 s a few minutes later, and the probe moves with
// such swings where the operations do. A comment line gives the unscaled
// values and the scale factor. Another gives each timing's median, the
// highest percentile with at least ten samples beyond it, and the sample
// count; for serve-1m it splits reads from writes and adds the published
// snapshot's age.
//
// Each end-to-end metric may worsen by a quarter of the parent's median
// before a change counts as a regression (the bounds in BENCHMARK.json).
// On that host the spread between runs with different seeds, the distance
// between the quartiles over the median, reaches 0.16 for the times and
// rates even after scaling, and 0.13 for flood-1m's allocation, which
// depends on the model: most seeds' broadcasts allocate about 830 MB, some
// 940 MB. baseline.json holds the measured spreads.
//
// # Per-layer metrics
//
// The traced run (--trace 1) reports these on every workload. Shares are
// parts of the traced operations' time; a layer the workload does not
// reach reads 0. Times are scaled like the end-to-end ones. Each row
// names the end-to-end metric and workload it should move.
//
//	metric                      layer      meaning → moves
//	setup.build_s               core/serve median model sampling or serve.New → setup_s, all
//	check_s                     oracles    time in the checks, outside every other metric
//	engine.call_max_ms          all        slowest single engine call: flood.Run, Traffic.Step,
//	                                       NewTracker/Observe, a request handler → op_ms
//	core.advance_share          core       AdvanceRound self time, hooks excluded → op_ms on
//	                                       flood-1m, traffic-burst64, expansion-window; predicted
//	                                       under 0.001, so a core-only change moves none of them
//	core.hook_share             core       hook callbacks (flood, traffic, tracker, served plane)
//	                                       → op_ms on the same three; inside serve.write_share on
//	                                       serve-1m
//	flood.run_share             flood      flood.Run minus core → op_ms, flood-1m
//	traffic.inject_share        flood      NewTraffic plus Inject → op_ms, done_per_s,
//	                                       traffic-burst64
//	traffic.step_share          flood      Traffic.Step minus core → same
//	traffic.poll_share          flood      Status, Result, Retire → same
//	expansion.attach_share      expansion  NewTracker → op_ms, expansion-window
//	expansion.observe_share     expansion  Observe calls that did not re-seed → same
//	expansion.reseed_share      expansion  Observe calls that re-seeded → same
//	serve.read_share            serve      GET handler time of traced requests → done_per_s and
//	                                       the read timings, serve-1m
//	serve.write_share           serve      POST handler time: queue wait, apply, publish, reply →
//	                                       op_ms, done_per_s, serve-1m
//	http.overhead_share         net/http   client latency minus handler time → op_ms,
//	                                       done_per_s, serve-1m
//	core.edge_events            core       OnEdge events per operation
//	core.death_events           core       OnDeath events per operation
//	core.birth_events           core       OnBirth events per operation
//	flood.rounds                flood      rounds per broadcast → op_ms, flood-1m
//	traffic.steps               flood      plane rounds per burst, or per write on serve-1m
//	traffic.packed_informed_mb  flood      TrafficMemStats.PackedInformedBytes → peak_heap_mb,
//	                                       alloc_mb_per_op on traffic-burst64 and serve-1m
//	expansion.sets              expansion  tracked sets per window → op_ms, expansion-window
//	expansion.reseeds           expansion  re-seeds per window, the initial seeding included
//	serve.publishes_per_s       serve      change of Snapshot.Version per second → done_per_s
//	serve.queue_depth_max       serve      QueueLen sampled every 5ms → the write timings
//	serve.queue_depth_mean      serve      same
//	mem.alloc_mb                runtime    bytes allocated in the whole run → alloc_mb_per_op
//	mem.num_gc                  runtime    collections in the whole run → peak_heap_mb, op_ms
//	mem.gc_pause_ms             runtime    stop-the-world pause in the whole run → op_ms
//	mem.gc_cpu_frac             runtime    the collector's share of CPU time; on two cores it
//	                                       competes with the two shards → every timing
//	machine.probe_ms            machine    median unscaled probe time; every scaled time moves
//	                                       with its inverse
//	trace.coverage              trace      part of the traced wall time inside layer spans
//	trace.overhead_frac         trace      traced median operation over untraced, minus 1
//
// Metrics that exist on one workload only and are times (the serve
// read/write split, snapshot age, the pre-step) are comment lines, not
// metrics: BENCHMARK.json's metrics are reported on every workload, and a
// time that reads 0 on three of them measures nothing there.
//
// # Traced and untraced runs
//
// End-to-end numbers come from the untraced run. The traced run makes the
// per-layer numbers: it wraps the model in a timedModel, which times
// AdvanceRound as a core.advance span and every hook callback it is
// handed, and it times each call into flood.Run, Traffic, the Tracker and
// serve.New from outside. For serve-1m it wraps the handler in a
// middleware whose spans a request-id header links to the client's span,
// and wraps the served model's hooks through Audit. Spans have a name, a
// start, an end and a parent, and stay in memory until --spans writes
// them out; hook callbacks are aggregated on the open span, a count and a
// total, not one span each. A span's self time is its duration minus the
// union of its children's intervals, so the overlapping requests of the
// two clients are not counted twice.
//
// The traced run leaves every other repetition untraced (for serve-1m, the
// first half of the measured time) and reports trace.overhead_frac as the
// traced median operation over the untraced one, minus 1. A value near 0
// says the per-layer shares describe the untraced run; trace.coverage
// near 1 says the spans account for the traced time.
//
// # Baseline
//
// baseline.json records the benchmark on the commit that introduced it:
// two sets of ten untraced runs per workload, each run with its own seed,
// with the median and quartiles of every end-to-end metric, one traced run
// per workload, and the machine. baseline.py made it, from the repository
// root:
//
//	python3 cmd/churnbench/baseline.py > cmd/churnbench/baseline.json
package main
