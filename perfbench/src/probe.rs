//! Layer-isolation probes and the sequential in-memory baseline. Each
//! replays the workload's own op stream (same name, same seed) against
//! one layer alone, on the load thread, with no service around it.

use crate::trace::{Name, Tracer};
use crate::workload::{Request, Workload, BATCH_MAX};
use kvserve::net::{decode_frame, encode_request, encode_response};
use kvserve::{MapOp, Reply};
use nvhalt::NvHalt;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use txstructs::HashMapTx;

/// How long each probe replays the stream.
const PROBE_TIME: Duration = Duration::from_millis(1000);
/// Requests the sequential baseline replays.
const BASELINE_REQUESTS: usize = 2_000_000;

/// `HashMapTx::apply_ops` on a standalone NV-HALT built from the shard
/// configuration (Optane latency model), fed the stream in batches of
/// `BATCH_MAX` requests — the batches a saturated shard worker commits.
/// Returns ns per op. One instance holds the whole keyspace, so on
/// multi-shard workloads its heap and buckets are the shards' combined.
pub fn tm_exec_ns_per_op(w: &Workload, seed: u64, tracer: &mut Tracer) -> Result<f64, String> {
    let cfg = w.service_config();
    let mut nv = cfg.nvhalt.clone();
    let threads = cfg.workers_per_shard + cfg.coordinators + 2;
    nv.heap_words = cfg.heap_words_per_shard * w.shards;
    nv.max_threads = threads;
    nv.pm.max_threads = threads;
    let tm = NvHalt::new(nv);
    let cancelled = |e| format!("TM probe transaction cancelled: {e:?}");
    let map = HashMapTx::create(&tm, 0, cfg.buckets_per_shard * w.shards).map_err(cancelled)?;
    let prefill: Vec<MapOp> = (0..w.keys)
        .filter(|&k| Workload::prefilled(k))
        .map(|k| MapOp::Insert(k, Workload::prefill_value(k)))
        .collect();
    for chunk in prefill.chunks(64) {
        map.apply_ops(&tm, 0, chunk).map_err(cancelled)?;
    }
    let mut stream = w.stream(seed);
    let mut batch = Vec::with_capacity(BATCH_MAX * 2);
    let (mut ops, mut busy, mut calls) = (0u64, Duration::ZERO, 0u64);
    while busy < PROBE_TIME {
        batch.clear();
        for _ in 0..BATCH_MAX {
            batch.extend_from_slice(stream.next_request().ops());
        }
        let start = Instant::now();
        black_box(
            map.apply_ops(&tm, 0, black_box(&batch))
                .map_err(cancelled)?,
        );
        let end = Instant::now();
        tracer.add(Name::ProbeTm, start, end);
        if Tracer::sampled(calls) {
            tracer.record(Name::ProbeTm, 0, 0, start, end);
        }
        calls += 1;
        busy += end - start;
        ops += batch.len() as u64;
    }
    Ok(busy.as_nanos() as f64 / ops as f64)
}

/// Per-request cost of each codec call on the workload's frames, in ns.
pub struct Codec {
    pub encode_request: f64,
    pub decode_request: f64,
    pub encode_response: f64,
    pub decode_response: f64,
}

impl Codec {
    pub fn total(&self) -> f64 {
        self.encode_request + self.decode_request + self.encode_response + self.decode_response
    }
}

/// Encode and decode the workload's request frames, and the responses a
/// server would send for them, in rounds of `ROUND` frames; each call is
/// timed across a whole round so clock reads do not dominate.
pub fn codec(w: &Workload, seed: u64, tracer: &mut Tracer) -> Result<Codec, String> {
    const ROUND: usize = 4096;
    let mut stream = w.stream(seed);
    let reqs: Vec<Request> = (0..ROUND).map(|_| stream.next_request()).collect();
    let replies: Vec<Reply> = reqs
        .iter()
        .map(|r| {
            Ok(r.ops()
                .iter()
                .map(|op| match *op {
                    MapOp::Get(k) | MapOp::Remove(k) => Some(Workload::prefill_value(k)),
                    MapOp::Insert(_, v) => Some(v),
                })
                .collect())
        })
        .collect();
    let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
    let mut totals = [Duration::ZERO; 4];
    let names = [
        Name::ProbeCodecEncodeRequest,
        Name::ProbeCodecDecodeRequest,
        Name::ProbeCodecEncodeResponse,
        Name::ProbeCodecDecodeResponse,
    ];
    let mut rounds = 0u64;
    let decode_all = |buf: &[u8]| -> Result<(), String> {
        let mut at = 0;
        while at < buf.len() {
            let (frame, used) =
                decode_frame(&buf[at..]).map_err(|e| format!("codec probe: {e}"))?;
            black_box(frame);
            at += used;
        }
        Ok(())
    };
    while totals.iter().sum::<Duration>() < PROBE_TIME / 2 {
        let mut stamps = [Instant::now(); 5];
        req_buf.clear();
        for (i, r) in reqs.iter().enumerate() {
            encode_request(&mut req_buf, i as u64, 0, r.ops());
        }
        stamps[1] = Instant::now();
        decode_all(&req_buf)?;
        stamps[2] = Instant::now();
        resp_buf.clear();
        for (i, reply) in replies.iter().enumerate() {
            encode_response(&mut resp_buf, i as u64, reply);
        }
        stamps[3] = Instant::now();
        decode_all(&resp_buf)?;
        stamps[4] = Instant::now();
        for (i, name) in names.iter().enumerate() {
            tracer.add(*name, stamps[i], stamps[i + 1]);
            tracer.record(*name, 0, 0, stamps[i], stamps[i + 1]);
            totals[i] += stamps[i + 1] - stamps[i];
        }
        rounds += 1;
    }
    let per_req = |d: Duration| d.as_nanos() as f64 / (rounds * ROUND as u64) as f64;
    Ok(Codec {
        encode_request: per_req(totals[0]),
        decode_request: per_req(totals[1]),
        encode_response: per_req(totals[2]),
        decode_response: per_req(totals[3]),
    })
}

/// Ops per second of the same stream applied to a `std` `HashMap` on one
/// thread: no durability, no concurrency — the ceiling the service is
/// measured against.
pub fn sequential_baseline(w: &Workload, seed: u64) -> f64 {
    const CHUNK: usize = 1 << 16;
    let mut stream = w.stream(seed);
    let mut map: HashMap<u64, u64> = (0..w.keys)
        .filter(|&k| Workload::prefilled(k))
        .map(|k| (k, Workload::prefill_value(k)))
        .collect();
    let mut chunk = Vec::with_capacity(CHUNK);
    let (mut ops, mut busy) = (0u64, Duration::ZERO);
    for _ in 0..BASELINE_REQUESTS / CHUNK {
        chunk.clear();
        chunk.extend((0..CHUNK).map(|_| stream.next_request()));
        let start = Instant::now();
        for r in &chunk {
            for op in r.ops() {
                let out = match *op {
                    MapOp::Get(k) => map.get(&k).copied(),
                    MapOp::Insert(k, v) => map.insert(k, v),
                    MapOp::Remove(k) => map.remove(&k),
                };
                black_box(out);
            }
            ops += r.ops().len() as u64;
        }
        busy += start.elapsed();
    }
    ops as f64 / busy.as_secs_f64()
}
