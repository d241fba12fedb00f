//! The repository benchmark: one closed-window workload of the `kvserve`
//! service per process, driven through its public front ends.
//!
//! ```text
//! perfbench --workload <ring-update|wire-read|ring-xshard> --seed <n>
//!           --seconds <s> --trace <0|1> [--git-rev <rev>] [--spans-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! splits the seconds between an untraced and a traced window, then runs
//! the two layer-isolation probes, reads the layer counters, and reports
//! the per-layer metrics. Either way the run ends with a read-back of every
//! written key, prints each metric by name and unit, and prints one JSON
//! result as its last line. Any failed check exits non-zero.

mod client;
mod probe;
mod stats;
mod trace;
mod workload;

use client::{Mode, Phase, Stack};
use kvserve::{MapOp, ServiceSnapshot};
use pmem::LatencyModel;
use stats::{median, ratio, CpuTicks};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tm::stats::Counter;
use trace::{Name, Tracer};
use workload::{Request, Workload, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median. A run sets up at
/// least `MIN_SETUPS` times and goes on while the set-ups have taken less
/// than `SETUP_BUDGET`, so a quick set-up is sampled more often: its time
/// is the noisiest.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 40;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Load before a measured window, so caches, the allocator and the
/// hashmap reach steady state.
const WARMUP: Duration = Duration::from_millis(500);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    git_rev: String,
    spans_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut git_rev = "unknown".to_string();
    let mut spans_dir = PathBuf::from(".bench_out");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err(format!("--seconds must be in [1, 60], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--git-rev" => git_rev = value,
            "--spans-dir" => spans_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        git_rev,
        spans_dir,
    })
}

/// Named metrics in print order, each with an optional note for the
/// human-readable line.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str, String)>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics
            .push((name.to_string(), value, unit, String::new()));
    }

    /// Attach a note to the metric added last.
    fn note(&mut self, note: String) {
        self.metrics.last_mut().expect("a metric to annotate").3 = note;
    }

    fn print(&self) {
        for (name, value, unit, note) in &self.metrics {
            println!("metric {name} = {value} {unit}{note}");
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u, _)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A fresh service with its front end and half the keyspace prefilled,
/// and the time that took: `Service::new`, on wire workloads the server
/// bind and client connect, and the prefill. The time is returned as
/// measured and less the share of the CPU time asked for meanwhile that
/// the host stole.
fn set_up(w: &Workload) -> Result<(Stack, f64, f64), String> {
    let cpu = CpuTicks::read();
    let start = Instant::now();
    let mut stack = Stack::start(w)?;
    let mut keys = (0..w.keys).filter(|&k| Workload::prefilled(k));
    stack.client.run(
        Mode::Prefill,
        &mut || {
            keys.next()
                .map(|k| Request::single(MapOp::Insert(k, Workload::prefill_value(k))))
        },
        None,
        None,
    )?;
    let took = start.elapsed().as_secs_f64();
    let stolen = CpuTicks::read().since(cpu).stolen_share().unwrap_or(0.0);
    Ok((stack, took * (1.0 - stolen), took))
}

/// Correctness: after the drain, read back every written key through the
/// same front end, then check that every request got exactly one verdict.
fn read_back(stack: &mut Stack) -> Result<(), String> {
    let mut keys = stack.client.touched_keys().into_iter();
    let read = stack.client.run(
        Mode::Readback,
        &mut || keys.next().map(|k| Request::single(MapOp::Get(k))),
        None,
        None,
    )?;
    stack.client.check_accounting()?;
    println!(
        "check: read-back of {} written keys ok; each of {} requests resolved to one verdict",
        read.tally.ok, stack.client.total.attempted
    );
    Ok(())
}

/// A load phase over the workload's stream, ending `len` from now.
fn load(
    stack: &mut Stack,
    stream: &mut workload::OpStream,
    len: Duration,
    tracer: Option<&mut Tracer>,
) -> Result<Phase, String> {
    let until = Instant::now() + len;
    stack.client.run(
        Mode::Load,
        &mut || Some(stream.next_request()),
        Some(until),
        tracer,
    )
}

/// Counter deltas over the traced window.
struct Window {
    before: ServiceSnapshot,
    after: ServiceSnapshot,
    net: Option<(kvserve::metrics::NetSnapshot, kvserve::metrics::NetSnapshot)>,
}

impl Window {
    fn shard_tm(&self) -> tm::stats::StatsSnapshot {
        let mut it = self
            .after
            .shards
            .iter()
            .zip(&self.before.shards)
            .map(|(a, b)| a.tm.since(&b.tm));
        let first = it.next().expect("at least one shard");
        it.fold(first, |acc, s| add_stats(&acc, &s))
    }

    fn coord_tm(&self) -> tm::stats::StatsSnapshot {
        self.after.coordinator.tm.since(&self.before.coordinator.tm)
    }

    fn shard_sum(&self, f: impl Fn(&kvserve::metrics::ShardSnapshot) -> u64) -> f64 {
        self.after.shards.iter().map(f).sum::<u64>() as f64
    }
}

fn add_stats(
    a: &tm::stats::StatsSnapshot,
    b: &tm::stats::StatsSnapshot,
) -> tm::stats::StatsSnapshot {
    // `since` subtracts; a - (0 - b) adds without touching private fields.
    let zero = b.since(b);
    a.since(&zero.since(b))
}

fn us(d: Option<Duration>) -> f64 {
    d.map_or(0.0, |d| d.as_secs_f64() * 1e6)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let baseline = probe::sequential_baseline(&w, args.seed);
    println!(
        "context {{\"workload\": \"{}\", \"seed\": {}, \"window\": {}, \"keys\": {}, \"shards\": {}, \"batch_max\": {}, \
         \"ring_slots\": {}, \"transport\": \"{}\", \"pm_model\": \"optane\", \"nproc\": {nproc}, \"git_rev\": \"{}\", \
         \"seconds\": {}, \"trace\": {}, \"sequential_baseline_ops_s\": {baseline:.0}}}",
        w.name,
        args.seed,
        w.window,
        w.keys,
        w.shards,
        workload::BATCH_MAX,
        workload::RING_SLOTS,
        if w.net { "kvserve::net loopback" } else { "kvserve::Ring" },
        args.git_rev,
        args.seconds,
        args.trace as u8,
    );

    let mut report = Report::default();
    let measured = if !args.trace {
        // Set up several times for a steady setup_s; measure on the last.
        let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
        let mut stack = None;
        let setting_up = Instant::now();
        while setups.len() < MIN_SETUPS
            || (setups.len() < MAX_SETUPS && setting_up.elapsed() < SETUP_BUDGET)
        {
            drop(stack.take());
            let (s, setup, raw) = set_up(&w)?;
            setups.push(setup);
            setups_raw.push(raw);
            stack = Some(s);
        }
        let mut stack = stack.expect("MIN_SETUPS >= 1");
        let mut stream = w.stream(args.seed);
        load(&mut stack, &mut stream, WARMUP, None)?;
        let phase = load(
            &mut stack,
            &mut stream,
            Duration::from_secs_f64(args.seconds),
            None,
        )?;
        read_back(&mut stack)?;
        drop(stack);
        let slices = phase.slice_count();
        report.add("goodput_ops_s", phase.goodput_steal_corrected(), "ops/s");
        report.note(format!(
            " (median of {slices} slices, corrected for the {:.1}% of asked-for CPU time \
             the host stole; uncorrected slice median {:.0}, whole window {:.0})",
            100.0 * phase.stolen_share(),
            phase.goodput_slice_median(),
            phase.goodput()
        ));
        report.add("p50_us", phase.p50_slice_median_us(), "us");
        report.note(format!(
            " (median of {slices} slices; whole window {:.1} over {} samples)",
            phase.latency.quantile_us(0.5),
            phase.latency.count()
        ));
        report.add(
            "ack_rate",
            ratio(phase.tally.ok as f64, phase.tally.attempted as f64),
            "fraction",
        );
        report.add("setup_s", median(&mut setups.clone()), "s");
        report.note(format!(
            " (median of {} set-ups {setups:.4?}, corrected for steal; as measured {setups_raw:.4?})",
            setups.len()
        ));
        report.add("peak_rss_mib", peak_rss_mib()?, "MiB");
        phase.tally
    } else {
        // Half the seconds untraced, half traced, on one service.
        let window = Duration::from_secs_f64(args.seconds / 2.0);
        let (mut stack, _, _) = set_up(&w)?;
        let mut stream = w.stream(args.seed);
        load(&mut stack, &mut stream, WARMUP, None)?;
        let untraced = load(&mut stack, &mut stream, window, None)?;
        let mut tr = Tracer::new(Instant::now());
        stack.svc.reset_metrics();
        let before = stack.svc.snapshot();
        let net_before = stack.server.as_ref().map(|s| s.metrics());
        let traced = load(&mut stack, &mut stream, window, Some(&mut tr))?;
        let win = Window {
            before,
            after: stack.svc.snapshot(),
            net: net_before.zip(stack.server.as_ref().map(|s| s.metrics())),
        };
        read_back(&mut stack)?;
        drop(stack);
        let tm_exec = probe::tm_exec_ns_per_op(&w, args.seed, &mut tr)?;
        let codec = probe::codec(&w, args.seed, &mut tr)?;
        layer_metrics(
            &mut report,
            &w,
            &untraced,
            &traced,
            &win,
            &tr,
            tm_exec,
            &codec,
        );

        let path = args
            .spans_dir
            .join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        tr.write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        for (name, count, self_ns) in tr.self_times() {
            println!(
                "span {} self_ns_mean = {self_ns:.0} over {count} recorded spans",
                name.label()
            );
        }
        traced.tally
    };
    println!("verdicts of the measured window: {measured:?}");
    report.print();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        measured.attempted,
        measured.failed(),
        report.json()
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    r: &mut Report,
    w: &Workload,
    untraced: &Phase,
    traced: &Phase,
    win: &Window,
    tr: &Tracer,
    tm_exec: f64,
    codec: &probe::Codec,
) {
    let ops = traced.ok_ops as f64;
    let reqs = traced.tally.attempted as f64;
    let per_op_ns = traced.window.as_nanos() as f64 / traced.ok_ops_in_window as f64;
    let mean = |n: Name| {
        let a = tr.agg(n);
        ratio(a.total_ns as f64, a.count as f64)
    };
    let per_req = |n: Name| ratio(tr.agg(n).total_ns as f64, reqs);
    let per_op = |n: Name| ratio(tr.agg(n).total_ns as f64, ops);

    // client: the load thread. Tails come from the untraced window.
    r.add("client.p99_us", untraced.latency.quantile_us(0.99), "us");
    r.add("client.p999_us", untraced.latency.quantile_us(0.999), "us");
    r.add("client.samples", untraced.latency.count() as f64, "count");
    r.add("client.gen_ns_per_req", mean(Name::ClientGen), "ns");

    // net: kvserve::net (zero where the workload bypasses it).
    r.add("net.send_ns", mean(Name::NetSendBatch), "ns");
    r.add("net.recv_wait_ns", per_req(Name::NetRecv), "ns");
    r.add("net.codec_ns_per_req", codec.total(), "ns");
    let (bytes, busy_frac, proto_err) = win.net.as_ref().map_or((0.0, 0.0, 0.0), |(b, a)| {
        (
            (a.bytes_in + a.bytes_out - b.bytes_in - b.bytes_out) as f64,
            ratio((a.busy - b.busy) as f64, (a.frames_in - b.frames_in) as f64),
            (a.protocol_errors - b.protocol_errors) as f64,
        )
    });
    r.add("net.bytes_per_op", ratio(bytes, ops), "B");
    r.add("net.busy_frac", busy_frac, "fraction");
    r.add("net.proto_err", proto_err, "count");

    // ring: kvserve::ring.
    let ring = &win.after.ring;
    r.add("ring.submit_ns", mean(Name::RingSubmitBatch), "ns");
    r.add("ring.wait_ns", per_req(Name::RingWait), "ns");
    r.add("ring.s2c_p50_us", us(ring.latency.quantile(0.5)), "us");
    r.note(" (2-bit histogram bucket upper edge, resolution +-25%)".into());
    r.add("ring.ring_full", ring.ring_full as f64, "count");
    r.add("ring.in_flight_hwm", ring.in_flight_hwm as f64, "count");

    // shard: kvserve::shard (counters were reset at the window start).
    let batches = win.shard_sum(|s| s.batches);
    r.add(
        "shard.mean_batch",
        ratio(win.shard_sum(|s| s.batched_reqs), batches),
        "reqs",
    );
    r.add(
        "shard.retries_per_batch",
        ratio(win.shard_sum(|s| s.retries), batches),
        "ratio",
    );
    r.add("shard.timeouts", win.shard_sum(|s| s.timeouts), "count");
    r.add("shard.rejected", win.shard_sum(|s| s.rejected), "count");

    // tm: NV-HALT over the simulated HTM, summed over the shard TMs.
    let t = win.shard_tm();
    let commits = t.commits() as f64;
    let per_commit = |c: Counter| ratio(t.get(c) as f64, commits);
    r.add("tm.hw_commit_frac", t.hw_commit_ratio(), "fraction");
    r.add(
        "tm.hw_conflict_per_commit",
        per_commit(Counter::HwConflict),
        "ratio",
    );
    r.add(
        "tm.hw_capacity_per_commit",
        per_commit(Counter::HwCapacity),
        "ratio",
    );
    r.add(
        "tm.hw_spurious_per_commit",
        per_commit(Counter::HwSpurious),
        "ratio",
    );
    r.add(
        "tm.sw_abort_per_commit",
        per_commit(Counter::SwAbort),
        "ratio",
    );
    r.add("tm.cancelled", t.get(Counter::Cancelled) as f64, "count");
    r.add(
        "tm.stripe_contended_per_commit",
        per_commit(Counter::StripeContended),
        "ratio",
    );
    r.add("tm.exec_ns_per_op", tm_exec, "ns");
    r.add("tm.exec_share", tm_exec / per_op_ns, "fraction");

    // pmem: persist traffic of the shard TMs and the 2PC decision log.
    let p = add_stats(&t, &win.coord_tm());
    let (flushes, fences, words) = (
        p.get(Counter::Flush) as f64,
        p.get(Counter::Fence) as f64,
        p.get(Counter::PmWords) as f64,
    );
    let lat = LatencyModel::optane();
    // Every flushed line is assumed outstanding at the next fence.
    let model_ns = flushes * (lat.flush_ns + lat.fence_per_line_ns) as f64
        + fences * lat.fence_base_ns as f64
        + words * lat.pm_write_ns as f64;
    r.add("pmem.flushes_per_op", ratio(flushes, ops), "ratio");
    r.add("pmem.fences_per_op", ratio(fences, ops), "ratio");
    r.add(
        "pmem.redundant_flushes",
        p.get(Counter::RedundantFlush) as f64,
        "count",
    );
    r.add("pmem.words_per_op", ratio(words, ops), "ratio");
    r.add("pmem.model_ns_per_op", ratio(model_ns, ops), "ns");
    r.note(" (lower bound: PM reads are not counted)".into());

    // coord: kvserve::coord (zero unless requests span shards).
    let c = &win.after.coordinator;
    let xb = c.cross_batches as f64;
    r.add("coord.prepare_p50_us", us(c.prepare.quantile(0.5)), "us");
    r.add("coord.commit_p50_us", us(c.commit.quantile(0.5)), "us");
    r.add(
        "coord.retries_per_batch",
        ratio(c.cross_retries as f64, xb),
        "ratio",
    );
    r.add("coord.abort_conflict", c.abort_conflict as f64, "count");
    r.add("coord.abort_timeout", c.abort_timeout as f64, "count");
    r.add(
        "coord.decisions_per_group",
        ratio(c.decisions_logged as f64, c.decision_groups as f64),
        "ratio",
    );
    r.add(
        "coord.log_fences_per_batch",
        ratio(win.coord_tm().get(Counter::Fence) as f64, xb),
        "ratio",
    );

    // ledger: end-to-end time per op, split into what the timed calls and
    // probes explain and the rest. Blocking reaps (ring.wait, net.recv)
    // are waiting on the service, not work, so they explain nothing.
    let ops_per_req = ratio(ops, traced.tally.ok as f64);
    let codec_outside_send = if w.net {
        (codec.decode_request + codec.encode_response + codec.decode_response) / ops_per_req
    } else {
        0.0
    };
    let terms = [
        ("client.gen", per_op(Name::ClientGen)),
        ("ring.submit_batch", per_op(Name::RingSubmitBatch)),
        ("net.send_batch", per_op(Name::NetSendBatch)),
        (
            "net.codec (server decode+encode, client decode)",
            codec_outside_send,
        ),
        ("tm.exec (probe)", tm_exec),
    ];
    let attributed: f64 = terms.iter().map(|(_, v)| v).sum();
    let unattributed = per_op_ns - attributed;
    println!("ledger end-to-end per-op time {per_op_ns:.1} ns (traced window)");
    for (name, v) in terms.iter().chain([("unattributed", unattributed)].iter()) {
        println!(
            "ledger   {name:<48} {v:>10.1} ns/op {:>6.1}%",
            100.0 * v / per_op_ns
        );
    }
    let closes =
        (attributed + unattributed - per_op_ns).abs() <= 1e-9 * per_op_ns && unattributed >= 0.0;
    println!(
        "ledger closes: {closes} (attributed {attributed:.1} + unattributed {unattributed:.1} = {:.1} ns/op)",
        attributed + unattributed
    );
    r.add(
        "ledger.unattributed_frac",
        unattributed / per_op_ns,
        "fraction",
    );
    r.add(
        "trace.overhead_frac",
        1.0 - traced.goodput_steal_corrected() / untraced.goodput_steal_corrected(),
        "fraction",
    );
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
