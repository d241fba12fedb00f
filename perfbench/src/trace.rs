//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every call is added to a per-name aggregate (count and total time).
//! Whole span records are kept only for sampled requests (and for the
//! probes), so a multi-million-request run stays small in memory; they
//! are written out as JSON lines when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Keep full span records for one request in this many.
const SAMPLE_EVERY: u64 = 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Name {
    ClientRequest,
    ClientGen,
    RingSubmitBatch,
    RingWait,
    NetSendBatch,
    NetRecv,
    ProbeTm,
    ProbeCodecEncodeRequest,
    ProbeCodecDecodeRequest,
    ProbeCodecEncodeResponse,
    ProbeCodecDecodeResponse,
}

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::ClientRequest => "client.request",
            Name::ClientGen => "client.gen",
            Name::RingSubmitBatch => "ring.submit_batch",
            Name::RingWait => "ring.wait",
            Name::NetSendBatch => "net.send_batch",
            Name::NetRecv => "net.recv",
            Name::ProbeTm => "probe.tm.apply_ops",
            Name::ProbeCodecEncodeRequest => "probe.codec.encode_request",
            Name::ProbeCodecDecodeRequest => "probe.codec.decode_request",
            Name::ProbeCodecEncodeResponse => "probe.codec.encode_response",
            Name::ProbeCodecDecodeResponse => "probe.codec.decode_response",
        }
    }
}

/// One recorded span. `parent` is the id of the span that caused it (0
/// for none); spans of one request share `request`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: Name,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Default, Debug)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    aggs: HashMap<Name, Agg>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            next_id: 1,
            spans: Vec::new(),
            aggs: HashMap::new(),
        }
    }

    pub fn sampled(request: u64) -> bool {
        request.is_multiple_of(SAMPLE_EVERY)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Count one call of `name` from `start` to `end` in the aggregates.
    pub fn add(&mut self, name: Name, start: Instant, end: Instant) {
        let a = self.aggs.entry(name).or_default();
        a.count += 1;
        a.total_ns += end.saturating_duration_since(start).as_nanos() as u64;
    }

    /// Keep a full record of a span (after [`Tracer::add`] counted it, if
    /// it should be counted); returns its id for children to name.
    pub fn record(
        &mut self,
        name: Name,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve_id();
        self.record_with_id(id, parent, name, request, start, end);
        id
    }

    /// Reserve an id for a span whose end is not known yet (a request's
    /// root span is recorded when its completion arrives).
    pub fn reserve_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn record_with_id(
        &mut self,
        id: u64,
        parent: u64,
        name: Name,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    pub fn agg(&self, name: Name) -> Agg {
        self.aggs.get(&name).copied().unwrap_or_default()
    }

    /// Mean self time per recorded span of each name: duration minus the
    /// part of it that the span's children cover.
    pub fn self_times(&self) -> Vec<(Name, u64, f64)> {
        let mut child_cover: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                child_cover
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name: HashMap<Name, (u64, u64)> = HashMap::new();
        for s in &self.spans {
            let mut covered = 0;
            if let Some(kids) = child_cover.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        let mut out: Vec<_> = by_name
            .into_iter()
            .map(|(n, (c, t))| (n, c, t as f64 / c as f64))
            .collect();
        out.sort_by_key(|(n, _, _)| n.label());
        out
    }

    /// Write every recorded span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.name.label(),
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut tr = Tracer::new(t0);
        let root = tr.reserve_id();
        tr.record(Name::ClientGen, root, 1, at(0), at(2));
        tr.record(Name::RingSubmitBatch, root, 1, at(2), at(5));
        tr.record_with_id(root, 0, Name::ClientRequest, 1, at(0), at(10));
        let st = tr.self_times();
        let get = |n| st.iter().find(|(m, _, _)| *m == n).unwrap().2;
        assert_eq!(get(Name::ClientRequest), 5_000.0);
        assert_eq!(get(Name::RingSubmitBatch), 3_000.0);
    }
}
