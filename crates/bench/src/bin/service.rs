//! Load generator for the `kvserve` durable KV service.
//!
//! Runs four YCSB-style mixes — read-heavy (95% get / 5% put),
//! update-heavy (50% get / 50% put), scan (atomic same-shard multi-get
//! windows) and cross-shard (atomic multi-puts spanning several shards,
//! committed via the 2PC coordinator) — across a sweep of shard counts
//! and batch-size caps, printing throughput, client-side latency
//! percentiles, the persist bill per op and a per-verdict tally (ok /
//! overloaded / ring-full / timeout / aborted / stopped / rerouted) so
//! rejected requests are reported as distinct outcomes rather than
//! treated as errors.
//!
//! Every cell runs **one load driver on one thread**. It keeps requests
//! in flight over a transport — the completion ring (`Service::ring()`)
//! or, with `--net`, one pipelined `NetClient` over loopback TCP
//! (`Service::serve_net`) — in one of two ways:
//!
//! - **window** (closed loop, the default): `--clients N` requests stay
//!   outstanding; the next is submitted when one completes;
//! - **rate** (open loop, `--open-loop`, and always with `--net`):
//!   Poisson arrivals at each offered rate in `--rates`,
//!   submitted when the virtual schedule says an arrival is due,
//!   however far the service has fallen behind — the methodology that
//!   exposes coordinated omission. Completions are reaped between
//!   arrivals without ever parking per request.
//!
//! Latency is measured the same way in every mode: client-side, from
//! the submit (or send) call to the reap of an OK verdict, as exact
//! sorted samples. Queue wait, and on `--net` framing and both socket
//! hops, are inside the measurement.
//!
//! The persistent-memory latency model defaults to Optane so the
//! flush/fence amortization from batching is visible (update-heavy
//! throughput should rise with `batch_max`); pass `--fast` to zero the
//! latency model for a quick functional sweep. Keys draw YCSB-Zipfian
//! with `--zipf <theta>` (0 = uniform). Every report carries a
//! sequential in-memory baseline (a plain `std` HashMap on one thread —
//! no durability, no concurrency) as the upper bound the durable
//! service is amortizing toward.
//!
//! Two hooks ride on the driver:
//!
//! - `--migrate` measures **elastic resharding under load**: a second
//!   thread splits shard 0 live mid-run (streaming its moving slots to a
//!   newly provisioned shard and flipping the routing table) between a
//!   pre- and a post-migration window; the report gives the driver's
//!   throughput before / during / after, the write-pause at the flip,
//!   and how many requests saw a reroute — the dip is the cost of
//!   elasticity, the pause is the only moment writes wait;
//! - `--repl` runs every cell with per-shard follower replication and
//!   semi-synchronous acks: the report gains the replication lag
//!   (entries the followers' applied state is behind the primaries) and
//!   each cell ends with a full failover — every primary pool dropped,
//!   the followers promoted — reporting the measured failover time.
//!
//! `--out FILE` writes the run as a `kvserve-bench-v1` JSON artifact
//! (see docs/benchmarking.md); CI schema-validates the committed
//! `BENCH_*.json` files with `cargo xtask check-bench`. A transport
//! error or a verdict the service contract does not allow ends the run
//! with a message and a non-zero exit.
//!
//! ```text
//! cargo run -p bench --release --bin service -- \
//!     --shards 1,2,4 --batch 1,8 --clients 8 --seconds 0.4
//! cargo run -p bench --release --bin service -- \
//!     --mixes update-heavy --repl --fast
//! cargo run -p bench --release --bin service -- \
//!     --open-loop --rates 5000,20000,80000 --zipf 0.99 \
//!     --mixes update-heavy --shards 2 --batch 8 --out BENCH_ring.json
//! ```

use bench::json::Json;
use bench::{fmt_tput, Args};
use kvserve::{
    MapOp, MigrateReport, MigrateSpec, NetClient, NetConfig, NetError, Reply, Ring, RoutingTable,
    ServeError, Service, ServiceConfig,
};
use pmem::LatencyModel;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tm::stats::Counter;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mix {
    ReadHeavy,
    UpdateHeavy,
    Scan,
    CrossShard,
}

impl Mix {
    const ALL: [Mix; 4] = [Mix::ReadHeavy, Mix::UpdateHeavy, Mix::Scan, Mix::CrossShard];

    fn label(self) -> &'static str {
        match self {
            Mix::ReadHeavy => "read-heavy",
            Mix::UpdateHeavy => "update-heavy",
            Mix::Scan => "scan",
            Mix::CrossShard => "cross-shard",
        }
    }

    fn parse(s: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.label() == s)
    }
}

/// Keys an atomic scan window may span before filtering to one shard.
const SCAN_SPAN: u64 = 32;
/// Ops per scan request after same-shard filtering (upper bound).
const SCAN_WINDOW: usize = 8;
/// Shards an atomic cross-shard multi-put spans (upper bound).
const XSHARD_SPAN: usize = 4;

/// How the driver keeps requests in flight.
#[derive(Clone, Copy)]
enum Load {
    /// Closed loop: keep this many requests outstanding.
    Window(usize),
    /// Open loop: Poisson arrivals at this many requests per second.
    Rate(f64),
}

struct Sweep {
    mixes: Vec<Mix>,
    shard_counts: Vec<usize>,
    batch_caps: Vec<usize>,
    loads: Vec<Load>,
    seconds: f64,
    keys: u64,
    fast: bool,
    repl: bool,
    net: bool,
    migrate: bool,
    /// Zipfian skew for key draws; 0 = uniform.
    zipf_theta: f64,
    /// Shipper group-commit window in microseconds (0 = disabled): how
    /// long a woken shipper lingers so more op-log entries ride one
    /// follower commit. Trades ack latency for persist traffic.
    ship_coalesce_us: u64,
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("service bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse();
    let net = args.get("net").is_some();
    let open = args.get("open-loop").is_some() || net;
    let loads = if open {
        args.list("rates")
            .map(|v| v.iter().filter_map(|s| s.parse().ok()).collect())
            .unwrap_or_else(|| vec![5_000.0, 20_000.0, 80_000.0])
            .into_iter()
            .map(Load::Rate)
            .collect()
    } else {
        vec![Load::Window(args.get_or("clients", 8usize).max(1))]
    };
    let sweep = Sweep {
        mixes: args
            .list("mixes")
            .map(|v| v.iter().filter_map(|s| Mix::parse(s)).collect())
            .unwrap_or_else(|| Mix::ALL.to_vec()),
        shard_counts: args
            .list("shards")
            .map(|v| v.iter().filter_map(|s| s.parse().ok()).collect())
            .unwrap_or_else(|| vec![1, 2, 4]),
        batch_caps: args
            .list("batch")
            .map(|v| v.iter().filter_map(|s| s.parse().ok()).collect())
            .unwrap_or_else(|| vec![1, 8]),
        loads,
        seconds: args.get_or("seconds", 0.4),
        keys: args.get_or("keys", 1u64 << 13),
        fast: args.get("fast").is_some(),
        repl: args.get("repl").is_some(),
        net,
        migrate: args.get("migrate").is_some(),
        zipf_theta: args.get_or("zipf", 0.0),
        ship_coalesce_us: args.get_or("ship-coalesce", 0u64),
    };
    let mode = if sweep.migrate {
        "migrate".to_string()
    } else {
        let load = if open { "open-loop" } else { "closed-loop" };
        format!("{}{load}", if net { "net-" } else { "" })
    };
    let pm = if sweep.fast { "zero-latency" } else { "optane" };
    println!(
        "kvserve service benchmark ({mode}): {} keys, zipf theta={}, {:.2}s per cell, pm={pm}, replication={}",
        sweep.keys, sweep.zipf_theta, sweep.seconds, sweep.repl,
    );
    let mut cells = Vec::new();
    let mut summary = Summary::default();
    for &mix in &sweep.mixes {
        for &shards in &sweep.shard_counts {
            for &batch in &sweep.batch_caps {
                for &load in &sweep.loads {
                    let cell = run_cell(&sweep, mix, shards, batch, load, &mut summary);
                    cells.push(cell.map_err(|e| {
                        format!("mix={} shards={shards} batch_max={batch}: {e}", mix.label())
                    })?);
                }
            }
        }
    }
    if let Some(path) = args.get("out") {
        let report = Json::obj()
            .field("schema", "kvserve-bench-v1")
            .field("mode", mode)
            .field("pm", pm)
            .field("keys", sweep.keys)
            .field("zipf_theta", sweep.zipf_theta)
            .field("replication", sweep.repl)
            .field("baseline", baseline_json(&sweep))
            .field("summary", summary.json())
            .field("cells", Json::Arr(cells));
        std::fs::write(path, format!("{report}\n")).map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nwrote {path}");
    }
    Ok(())
}

/// Peak achieved throughput, in-flight depth, and worst-case persist
/// overhead across the run's cells. The persist maxima are what
/// `cargo xtask check-bench --max-flushes-per-op` gates: no cell of the
/// committed artifact may spend more flushes (or fences) per completed
/// operation than the threshold.
#[derive(Default)]
struct Summary {
    max_in_flight: u64,
    peak_tput: f64,
    max_flushes: f64,
    max_fences: f64,
}

impl Summary {
    fn json(&self) -> Json {
        Json::obj()
            .field("max_in_flight", self.max_in_flight)
            .field("peak_tput_ops_per_sec", self.peak_tput)
            .field("max_flushes_per_op", self.max_flushes)
            .field("max_fences_per_op", self.max_fences)
    }
}

fn service_config(sweep: &Sweep, shards: usize, batch: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(shards);
    cfg.batch_max = batch;
    cfg.queue_depth = 4096;
    cfg.ring_slots = 4096;
    cfg.buckets_per_shard = ((sweep.keys as usize / shards).next_power_of_two()).max(64);
    cfg.heap_words_per_shard = (sweep.keys as usize * 8 / shards).max(1 << 16);
    cfg.default_deadline = Duration::from_secs(2);
    cfg.replication = sweep.repl;
    cfg.ship_coalesce = Duration::from_micros(sweep.ship_coalesce_us);
    if !sweep.fast {
        cfg.nvhalt.pm.lat = LatencyModel::optane();
    }
    cfg
}

/// Keys the prefill writes: half the key range, picked by hash.
fn prefilled(k: u64) -> bool {
    k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0
}

/// The value of the phase counter that ends a drive.
const END: usize = usize::MAX;
/// Most requests the open-loop driver submits, and most completions it
/// reaps, before it turns to the other. Draining after every send kept
/// a 400k req/s socket cell to about half its arrivals; bursts let one
/// round of reaps serve many sends. Capping the reaps too keeps a
/// saturated ring full: a round never frees more slots than the next
/// round can refill.
const BURST: usize = 64;

/// One cell: a prefilled service, the driver on this thread, the cell's
/// clock (and the migration, if any) on a second one, then the report.
fn run_cell(
    sweep: &Sweep,
    mix: Mix,
    shards: usize,
    batch: usize,
    load: Load,
    summary: &mut Summary,
) -> Result<Json, String> {
    let svc = Service::new(service_config(sweep, shards, batch));
    // Prefill half the key range, then zero the service metrics so the
    // measurement window starts clean.
    for k in (0..sweep.keys).filter(|&k| prefilled(k)) {
        svc.put(k, k + 1)
            .map_err(|e| format!("prefill write: {e}"))?;
    }
    svc.reset_metrics();
    let before = svc.snapshot();

    let (mut transport, server) = if sweep.net {
        let server = (svc.serve_net(NetConfig::default()))
            .map_err(|e| format!("binding the loopback server: {e}"))?;
        let client = NetClient::connect(server.local_addr())
            .map_err(|e| format!("connecting to the loopback server: {e}"))?;
        (Transport::Net(client), Some(server))
    } else {
        // The ring handle (not the consumed `Service`) is what survives
        // a migration: the shared router re-targets it at the flip.
        (Transport::Ring(svc.ring()), None)
    };
    let (load_key, load_val) = match load {
        Load::Window(w) => ("clients", w as f64),
        Load::Rate(r) => ("offered_rate", r),
    };
    let mut gen = Gen::new(sweep, mix, shards, 0x0be7_ca11 ^ load_val as u64);
    let phase = AtomicUsize::new(0);
    let (clock, driven) = std::thread::scope(|scope| {
        let clock = scope.spawn(|| cell_clock(sweep, svc, &phase));
        let driven = drive(&mut transport, load, &mut gen, &phase);
        (clock.join(), driven)
    });
    let (svc, migration) = clock.map_err(|_| "the cell's clock thread panicked".to_string())?;
    let mut tally = driven?;
    let net = server.map(|server| {
        let m = server.metrics();
        drop(transport);
        server.stop();
        m
    });

    // Report with TM statistics windowed to the measurement period.
    let mut snap = svc.snapshot();
    for (s, b) in snap.shards.iter_mut().zip(&before.shards) {
        s.tm = s.tm.since(&b.tm);
    }
    snap.coordinator.tm = snap.coordinator.tm.since(&before.coordinator.tm);
    // Persist-overhead for the measurement window, summed over the shard
    // TMs *and* the 2PC coordinator's decision-log TM (its decision and
    // resolve commits are part of every cross-shard batch's persistence
    // bill): flushes and fences per committed op show how well batching
    // amortizes the persist cost, and redundant flushes (lines flushed
    // with no store since their last flush) are pure waste the
    // sanitizer's perf class counts.
    let (mut flushes, mut redundant, mut fences) = (0u64, 0u64, 0u64);
    for tm in snap
        .shards
        .iter()
        .map(|s| &s.tm)
        .chain(std::iter::once(&snap.coordinator.tm))
    {
        flushes += tm.get(Counter::Flush);
        redundant += tm.get(Counter::RedundantFlush);
        fences += tm.get(Counter::Fence);
    }
    let total_ops = (snap.ops() + snap.coordinator.cross_ops).max(1) as f64;
    let (flushes_per_op, fences_per_op) = (flushes as f64 / total_ops, fences as f64 / total_ops);
    tally.lat_us.sort_by(f64::total_cmp);
    let lat = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)]
        .map(|(name, q)| (name, quantile(&tally.lat_us, q)));
    let tput = tally.ok_ops as f64 / tally.secs;
    println!(
        "\n== mix={} shards={shards} batch_max={batch} {load_key}={} ==",
        mix.label(),
        fmt_tput(load_val),
    );
    for s in &snap.shards {
        println!("  {s}");
    }
    println!(
        "  offered={} ok={} overloaded={} ring_full={} timeout={} aborted={} stopped={} rerouted={}",
        tally.offered,
        tally.ok,
        tally.overloaded,
        tally.ring_full,
        tally.timeout,
        tally.aborted,
        tally.stopped,
        tally.rerouted,
    );
    println!(
        "  tput={}/s ({} req/s) max_in_flight={} latency{}",
        fmt_tput(tput),
        fmt_tput(tally.ok as f64 / tally.secs),
        snap.ring.in_flight_hwm,
        lat.map(|(name, v)| format!(" {name}={:.0}us", v.unwrap_or(f64::NAN)))
            .concat(),
    );
    println!("  persist: flushes/op={flushes_per_op:.2} fences/op={fences_per_op:.2} redundant={redundant}");
    // Fast-path stripe contention; the held-lock depth and service-lock
    // contention counters stay out of the report — without
    // `--features locksan` they are always zero.
    if snap.stripe_contended() > 0 {
        println!("  locks: stripe_contended={}", snap.stripe_contended());
    }
    if snap.coordinator.cross_batches > 0 {
        println!("  {}", snap.coordinator);
    }
    if let Some(repl) = &snap.replication {
        println!("  {repl}");
    }
    if let Some(net) = &net {
        println!("  {net}");
    }

    summary.max_in_flight = summary.max_in_flight.max(snap.ring.in_flight_hwm);
    summary.peak_tput = summary.peak_tput.max(tput);
    summary.max_flushes = summary.max_flushes.max(flushes_per_op);
    summary.max_fences = summary.max_fences.max(fences_per_op);
    let mut cell = Json::obj()
        .field("mix", mix.label())
        .field("shards", shards)
        .field("batch_max", batch)
        .field(load_key, load_val)
        .field("duration_secs", tally.secs)
        .field("offered", tally.offered)
        .field("ok", tally.ok)
        .field("overloaded", tally.overloaded)
        .field("ring_full", tally.ring_full)
        .field("timeout", tally.timeout)
        .field("aborted", tally.aborted)
        .field("stopped", tally.stopped)
        .field("rerouted", tally.rerouted)
        .field("tput_ops_per_sec", tput)
        .field("tput_reqs_per_sec", tally.ok as f64 / tally.secs)
        .field("max_in_flight", snap.ring.in_flight_hwm)
        .field(
            "latency_us",
            lat.into_iter().fold(Json::obj(), |j, (name, v)| {
                j.field(name, v.map_or(Json::Null, Json::Num))
            }),
        )
        .field(
            "persist",
            Json::obj()
                .field("flushes_per_op", flushes_per_op)
                .field("redundant_flushes", redundant)
                .field("fences_per_op", fences_per_op),
        )
        .field(
            "locks",
            Json::obj().field("stripe_contended", snap.stripe_contended()),
        );
    if let Some(net) = &net {
        cell = cell.field(
            "net",
            Json::obj()
                .field("frames_in", net.frames_in)
                .field("frames_out", net.frames_out)
                .field("bytes_in", net.bytes_in)
                .field("bytes_out", net.bytes_out)
                .field("busy_frames", net.busy),
        );
    }
    if let Some(report) = migration {
        // Per-phase rates from the driver's own ok-op counts.
        let rate = |i: usize| tally.phases.get(i).map_or(0.0, |&(ops, s)| ops as f64 / s);
        let (pre, during, post) = (rate(0), rate(1), rate(2));
        println!(
            "  migrate {shards}->{}: pre={}/s during={}/s post={}/s (dip {:.0}%)",
            shards + 1,
            fmt_tput(pre),
            fmt_tput(during),
            fmt_tput(post),
            (1.0 - during / pre).max(0.0) * 100.0,
        );
        println!(
            "  migration: total={:.3?} flip_pause={:.3?} base_keys={} catchup_entries={} epoch={}",
            report.duration,
            report.flip_pause,
            report.base_keys,
            report.catchup_entries,
            report.epoch,
        );
        println!(
            "  rerouted: client-visible={} worker-shed={}",
            tally.rerouted,
            snap.shards.iter().map(|s| s.rerouted).sum::<u64>(),
        );
        cell = cell
            .field("shards_after", shards + 1)
            .field("tput_pre_ops_per_sec", pre)
            .field("tput_during_ops_per_sec", during)
            .field("tput_post_ops_per_sec", post)
            .field("migrate_secs", report.duration.as_secs_f64())
            .field("flip_pause_us", report.flip_pause.as_secs_f64() * 1e6)
            .field("base_keys", report.base_keys)
            .field("catchup_entries", report.catchup_entries)
            .field("routing_epoch", report.epoch);
    }
    if sweep.repl {
        // End the cell with the failure shape replication exists for:
        // every primary pool is lost and the followers take over. The
        // reported duration covers log recovery, the receive-log tail
        // apply, the durable promotion, and the 2PC decision replay.
        let (promoted, report) = Service::promote(svc.fail_over());
        println!(
            "  failover: promoted in {:.3?} (tail_applied={} replayed={})",
            report.duration, report.tail_applied, report.replayed
        );
        drop(promoted);
    }
    Ok(cell)
}

/// The cell's clock, run beside the driver: a plain cell ends after
/// `--seconds`; a `--migrate` cell splits shard 0 live between a pre-
/// and a post-migration window of `--seconds` each. The driver files
/// its ok ops under the phase current at reap time.
fn cell_clock(
    sweep: &Sweep,
    svc: Service,
    phase: &AtomicUsize,
) -> (Service, Option<MigrateReport>) {
    let window = Duration::from_secs_f64(sweep.seconds);
    std::thread::sleep(window);
    if !sweep.migrate {
        phase.store(END, Ordering::Release);
        return (svc, None);
    }
    phase.store(1, Ordering::Release);
    let spec = MigrateSpec::split(&svc.routing(), 0);
    let (svc, report) = svc.migrate(spec);
    phase.store(2, Ordering::Release);
    std::thread::sleep(window);
    phase.store(END, Ordering::Release);
    (svc, Some(report))
}

/// The front end the driver keeps requests in flight on.
enum Transport {
    Ring(Ring),
    Net(NetClient),
}

/// What an in-flight request is reaped by: its ring slot or its wire
/// correlation id. Either is unique while the request is in flight (a
/// ring slot is reissued only once its completion has been reaped).
type Key = u64;

fn wire_error(e: NetError) -> String {
    format!("transport error on the wire client: {e}")
}

impl Transport {
    /// `Ok(Err(_))` is a definite refusal at submission (nothing queued).
    fn submit(&mut self, ops: Vec<MapOp>) -> Result<Result<Key, ServeError>, String> {
        match self {
            Transport::Ring(r) => Ok(r.submit_batch(ops).map(|t| t.slot() as Key)),
            Transport::Net(c) => c.send_batch(&ops).map(Ok).map_err(wire_error),
        }
    }

    /// The next completion, if one is ready. With `wait` (a full window)
    /// the ring, which has no wait-for-any, yields the CPU once when
    /// nothing is ready; the wire client, only ever driven at a rate,
    /// never waits.
    fn reap(&mut self, wait: bool) -> Result<Option<(Key, Reply)>, String> {
        match self {
            Transport::Ring(r) => {
                let c = r.complete();
                if c.is_none() && wait {
                    std::thread::yield_now();
                }
                Ok(c.map(|c| (c.ticket.slot() as Key, c.result)))
            }
            Transport::Net(c) => (c.try_recv())
                .map(|r| r.map(|r| (r.corr, r.reply)))
                .map_err(wire_error),
        }
    }
}

/// Every request's verdict, counted once: `offered` when it is
/// generated, then exactly one other count when it resolves.
/// Backpressure, deadline and conflict rejections are expected service
/// responses under load, not failures, so they are counted and
/// reported instead of aborting the run.
#[derive(Default)]
struct Tally {
    offered: u64,
    ok: u64,
    ok_ops: u64,
    /// `Overloaded` from the ring; `Busy` frames on the wire.
    overloaded: u64,
    ring_full: u64,
    timeout: u64,
    aborted: u64,
    stopped: u64,
    /// Verdicts of a live migration's flip window (never acked).
    rerouted: u64,
    /// Submit-to-reap latency of every OK request, in µs.
    lat_us: Vec<f64>,
    /// `(ok ops, seconds)` per phase of the cell's clock.
    phases: Vec<(u64, f64)>,
    /// From the first submission to the last reap.
    secs: f64,
}

impl Tally {
    fn resolve(
        &mut self,
        inflight: &mut HashMap<Key, (usize, Instant)>,
        (h, reply): (Key, Reply),
    ) -> Result<(), String> {
        let (nops, sent) = inflight
            .remove(&h)
            .ok_or("a completion for no request in flight")?;
        self.record(nops, sent, reply)
    }

    fn record(&mut self, nops: usize, sent: Instant, reply: Reply) -> Result<(), String> {
        match reply {
            Ok(_) => {
                self.ok += 1;
                self.ok_ops += nops as u64;
                self.lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
            }
            Err(ServeError::Overloaded { .. }) => self.overloaded += 1,
            Err(ServeError::RingFull) => self.ring_full += 1,
            Err(ServeError::Timeout) => self.timeout += 1,
            Err(ServeError::Aborted) => self.aborted += 1,
            Err(ServeError::Stopped) => self.stopped += 1,
            Err(ServeError::Rerouted) => self.rerouted += 1,
            Err(e) => return Err(format!("unexpected verdict: {e}")),
        }
        Ok(())
    }
}

/// The load driver: one thread keeps requests in flight on `t` under
/// `load` until the cell's clock reads [`END`], then drains every
/// outstanding request to a verdict.
fn drive(
    t: &mut Transport,
    load: Load,
    gen: &mut Gen,
    phase: &AtomicUsize,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    // Requests still awaiting their verdict: op count and submit instant.
    let mut inflight: HashMap<Key, (usize, Instant)> = HashMap::new();
    let start = Instant::now();
    let (mut cur, mut mark, mut phase_start) = (0, 0u64, start);
    // Open loop: the virtual time of the next arrival, in seconds.
    let mut next = 0.0f64;
    loop {
        let p = phase.load(Ordering::Acquire);
        if p != cur {
            let secs = phase_start.elapsed().as_secs_f64();
            tally.phases.push((tally.ok_ops - mark, secs));
            (cur, mark, phase_start) = (p, tally.ok_ops, Instant::now());
            if p == END {
                break;
            }
        }
        // Submit while the window has room, or — the open loop proper —
        // every arrival the virtual schedule has made due, whether or not
        // the service keeps up: when it falls behind, depth (and then
        // RingFull / Busy drops) absorb the excess, which is exactly the
        // signal a closed loop hides. Gaps are exponential (a Poisson
        // process); back-to-back arrivals go out as one burst, so the
        // reaps between them amortize. One clock read per submission:
        // the submit instant doubles as the next due check's "now".
        let (mut now, mut submitted) = (Instant::now(), 0);
        while submitted < BURST
            && match load {
                Load::Window(w) => inflight.len() < w,
                Load::Rate(_) => (now - start).as_secs_f64() >= next,
            }
        {
            let ops = gen.ops();
            let nops = ops.len();
            tally.offered += 1;
            submitted += 1;
            now = Instant::now();
            match t.submit(ops)? {
                Ok(h) => {
                    inflight.insert(h, (nops, now));
                }
                Err(e) => tally.record(nops, now, Err(e))?,
            }
            if let Load::Rate(rate) = load {
                next += -gen.rng.unit().ln() / rate;
            }
        }
        match load {
            // A full window waits for one completion.
            Load::Window(_) if submitted == 0 => {
                if let Some(c) = t.reap(true)? {
                    tally.resolve(&mut inflight, c)?;
                }
            }
            Load::Window(_) => {}
            // Reap what is ready between arrivals; never park. Idle with
            // requests in flight, the driver yields: a timer sleep
            // overshoots by tens of µs, and a completion landing meanwhile
            // would carry that in its latency. Idle with nothing in
            // flight, it sleeps toward the next arrival instead of
            // holding a CPU the service could use.
            Load::Rate(_) => {
                let mut reaped = 0;
                while reaped < BURST {
                    let Some(c) = t.reap(false)? else { break };
                    tally.resolve(&mut inflight, c)?;
                    reaped += 1;
                }
                if submitted + reaped == 0 {
                    let gap = next - start.elapsed().as_secs_f64();
                    if inflight.is_empty() && gap > 20e-6 {
                        std::thread::sleep(Duration::from_secs_f64(gap.min(200e-6)));
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }
    // Drain: every accepted request resolves (deadlines bound the wait).
    let grace = Instant::now() + Duration::from_secs(5);
    while !inflight.is_empty() {
        if Instant::now() >= grace {
            return Err(format!(
                "{} requests unresolved after drain",
                inflight.len()
            ));
        }
        match t.reap(false)? {
            Some(c) => tally.resolve(&mut inflight, c)?,
            None => std::thread::sleep(Duration::from_micros(100)),
        }
    }
    tally.secs = start.elapsed().as_secs_f64();
    Ok(tally)
}

/// Percentile of an already-sorted sample set.
fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    Some(sorted[(last as f64 * q).round() as usize])
}

/// xorshift64 PRNG for the generators.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// YCSB-style Zipfian key generator (`theta = 0` → uniform). The rank
/// is scrambled with a multiplicative hash so the hottest keys spread
/// across shards instead of clustering on one.
struct KeyGen {
    keys: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl KeyGen {
    fn new(keys: u64, theta: f64) -> KeyGen {
        if theta <= 0.0 {
            return KeyGen {
                keys,
                theta: 0.0,
                zetan: 0.0,
                alpha: 0.0,
                eta: 0.0,
            };
        }
        assert!(theta < 1.0, "zipf theta must be in [0, 1)");
        let zetan: f64 = (1..=keys).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        KeyGen {
            keys,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / keys as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn draw(&self, rng: &mut Rng) -> u64 {
        if self.theta <= 0.0 {
            return rng.next() % self.keys;
        }
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (self.keys as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        rank.min(self.keys - 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) % self.keys
    }
}

/// The request stream for one mix. Multi-key shapes route with the
/// fresh table for the cell's shard count — exactly the service's
/// table before any migration — so the sequential baseline can
/// generate identical streams without a service.
struct Gen {
    mix: Mix,
    keys: u64,
    table: RoutingTable,
    rng: Rng,
    kg: KeyGen,
}

impl Gen {
    fn new(sweep: &Sweep, mix: Mix, shards: usize, seed: u64) -> Gen {
        Gen {
            mix,
            keys: sweep.keys,
            table: RoutingTable::fresh(shards),
            rng: Rng(seed | 1),
            kg: KeyGen::new(sweep.keys, sweep.zipf_theta),
        }
    }

    fn ops(&mut self) -> Vec<MapOp> {
        let (keys, table) = (self.keys, &self.table);
        let k = self.kg.draw(&mut self.rng);
        let r = self.rng.next();
        match self.mix {
            Mix::ReadHeavy if r % 100 < 95 => vec![MapOp::Get(k)],
            Mix::ReadHeavy => vec![MapOp::Insert(k, r)],
            Mix::UpdateHeavy if r.is_multiple_of(2) => vec![MapOp::Get(k)],
            Mix::UpdateHeavy => vec![MapOp::Insert(k, r)],
            Mix::Scan => {
                // An atomic multi-get over the keys of a contiguous
                // window that live on the first key's shard.
                let shard = table.route(k);
                (k..k + SCAN_SPAN)
                    .filter(|&x| x < keys && table.route(x) == shard)
                    .take(SCAN_WINDOW)
                    .map(MapOp::Get)
                    .collect()
            }
            Mix::CrossShard => {
                // An atomic multi-put spanning several shards — one key
                // per distinct shard walking forward from k — committed
                // through the 2PC coordinator (single-shard services
                // degrade to the fast path).
                let shards = table.shards();
                let mut seen = vec![false; shards];
                (k..k + SCAN_SPAN)
                    .filter(|&x| !std::mem::replace(&mut seen[table.route(x % keys)], true))
                    .take(shards.min(XSHARD_SPAN))
                    .map(|x| MapOp::Insert(x % keys, r))
                    .collect()
            }
        }
    }
}

/// Sequential in-memory executor: the same op stream against a plain
/// `std` HashMap on one thread — no transactions, no flush/fence, no
/// queues. The upper bound batching amortizes the durable service
/// toward, recorded alongside every artifact.
fn sequential_baseline(sweep: &Sweep, mix: Mix) -> f64 {
    let shards = sweep.shard_counts.first().copied().unwrap_or(1);
    let mut gen = Gen::new(sweep, mix, shards, 0xba5e_11e5);
    let mut map: HashMap<u64, u64> = (0..sweep.keys)
        .filter(|&k| prefilled(k))
        .map(|k| (k, k + 1))
        .collect();
    let dur = sweep.seconds.min(0.2);
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed().as_secs_f64() < dur {
        for _ in 0..64 {
            for op in gen.ops() {
                let out = match op {
                    MapOp::Get(k) => map.get(&k).copied(),
                    MapOp::Insert(k, v) => map.insert(k, v),
                    MapOp::Remove(k) => map.remove(&k),
                };
                std::hint::black_box(out);
                ops += 1;
            }
        }
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

fn baseline_json(sweep: &Sweep) -> Json {
    let mut tputs = Json::obj();
    for &mix in &sweep.mixes {
        tputs = tputs.field(mix.label(), sequential_baseline(sweep, mix));
    }
    Json::obj()
        .field("mode", "sequential-inmemory")
        .field("tput_ops_per_sec", tputs)
}
