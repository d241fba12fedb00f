//! The closed-window load thread, the transports it drives, and the
//! correctness ledger that checks every verdict and every value.
//!
//! One thread keeps `window` requests outstanding. It never retries: each
//! attempted request resolves to exactly one counted verdict, and a
//! verdict the service contract does not allow, or a transport error, ends
//! the run with an error instead of a panic.

use crate::stats::{median, CpuTicks, LatHist};
use crate::trace::{Name, Tracer};
use crate::workload::{Request, Workload};
use kvserve::{
    MapOp, NetClient, NetConfig, NetError, NetServer, Reply, Ring, ServeError, Service, Ticket,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The front end a workload drives.
pub enum Transport {
    Ring(Ring),
    Net(NetClient),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Handle {
    Ticket(Ticket),
    Corr(u64),
}

fn net_error(e: NetError) -> String {
    format!("transport error on the wire client: {e}")
}

impl Transport {
    fn submit_name(&self) -> Name {
        match self {
            Transport::Ring(_) => Name::RingSubmitBatch,
            Transport::Net(_) => Name::NetSendBatch,
        }
    }

    fn reap_name(&self) -> Name {
        match self {
            Transport::Ring(_) => Name::RingWait,
            Transport::Net(_) => Name::NetRecv,
        }
    }

    /// `Ok(Err(_))` is a definite refusal at submission (nothing queued).
    fn submit(&mut self, ops: &[MapOp]) -> Result<Result<Handle, ServeError>, String> {
        match self {
            Transport::Ring(r) => Ok(r.submit_batch(ops.to_vec()).map(Handle::Ticket)),
            Transport::Net(c) => c
                .send_batch(ops)
                .map(|corr| Ok(Handle::Corr(corr)))
                .map_err(net_error),
        }
    }

    /// The next completion. The ring is polled (`None` when nothing is
    /// ready, after yielding the CPU); the wire client blocks in `recv`.
    fn reap(&mut self) -> Result<Option<(Handle, Reply)>, String> {
        match self {
            Transport::Ring(r) => match r.complete() {
                Some(c) => Ok(Some((Handle::Ticket(c.ticket), c.result))),
                None => {
                    std::thread::yield_now();
                    Ok(None)
                }
            },
            Transport::Net(c) => c
                .recv()
                .map(|resp| Some((Handle::Corr(resp.corr), resp.reply)))
                .map_err(net_error),
        }
    }
}

/// A running service with the load thread's client over its front end.
/// Fields drop in order: the client closes its connection, then
/// the server stops, then the service joins its workers.
pub struct Stack {
    pub client: Client,
    pub server: Option<NetServer>,
    pub svc: Service,
}

impl Stack {
    /// `Service::new`, plus the loopback server and its one client on
    /// `net` workloads.
    pub fn start(w: &Workload) -> Result<Stack, String> {
        let svc = Service::new(w.service_config());
        let (transport, server) = if w.net {
            let server = svc
                .serve_net(NetConfig::default())
                .map_err(|e| format!("binding the loopback server: {e}"))?;
            let client = NetClient::connect(server.local_addr())
                .map_err(|e| format!("connecting to the loopback server: {e}"))?;
            (Transport::Net(client), Some(server))
        } else {
            (Transport::Ring(svc.ring()), None)
        };
        Ok(Stack {
            client: Client::new(transport, w),
            server,
            svc,
        })
    }
}

/// Verdict counts. `attempted` is bumped at submission and exactly one
/// other field when the request resolves.
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub overloaded: u64,
    pub ring_full: u64,
    pub timeout: u64,
    pub aborted: u64,
    pub stopped: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.overloaded += other.overloaded;
        self.ring_full += other.ring_full;
        self.timeout += other.timeout;
        self.aborted += other.aborted;
        self.stopped += other.stopped;
    }

    pub fn failed(&self) -> u64 {
        self.overloaded + self.ring_full + self.timeout + self.aborted + self.stopped
    }

    fn count_failure(&mut self, e: ServeError) -> Result<(), String> {
        match e {
            ServeError::Overloaded { .. } => self.overloaded += 1,
            ServeError::RingFull => self.ring_full += 1,
            ServeError::Timeout => self.timeout += 1,
            ServeError::Aborted => self.aborted += 1,
            ServeError::Stopped => self.stopped += 1,
            other => return Err(format!("unexpected verdict: {other:?}")),
        }
        Ok(())
    }
}

/// Length of the slices a measured window is cut into.
pub const SLICE: Duration = Duration::from_millis(100);

/// Slices on each side of a slice whose CPU ticks are pooled to estimate
/// its stolen share: a 0.1 s slice holds only ~20 ticks of a 2-vCPU
/// machine, a 0.5 s neighbourhood ~100.
const STEAL_NEIGHBOURS: usize = 2;

/// One `SLICE` of a measured window.
pub struct Slice {
    /// Ops in requests acked OK whose completion arrived in the slice.
    pub ok_ops: u64,
    /// Latency of the requests completed in the slice.
    pub latency: LatHist,
    /// The machine's CPU time over the slice.
    pub cpu: CpuTicks,
}

/// What one phase measured.
pub struct Phase {
    pub tally: Tally,
    /// Ops in requests acked OK.
    pub ok_ops: u64,
    /// Ops in requests acked OK whose completion arrived inside the window.
    pub ok_ops_in_window: u64,
    pub window: Duration,
    /// Submit-to-observed-completion latency of every resolved request.
    pub latency: LatHist,
    /// The window cut into `SLICE`-long slices.
    pub slices: Vec<Slice>,
}

impl Phase {
    /// Ops acked OK per second over the whole window.
    pub fn goodput(&self) -> f64 {
        self.ok_ops_in_window as f64 / self.window.as_secs_f64()
    }

    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Ops acked OK per second in the median slice, uncorrected.
    pub fn goodput_slice_median(&self) -> f64 {
        let mut rates: Vec<f64> = self.slices.iter().map(Self::rate).collect();
        median(&mut rates)
    }

    fn rate(s: &Slice) -> f64 {
        s.ok_ops as f64 / SLICE.as_secs_f64()
    }

    /// Ops acked OK per second of CPU time the machine was given: each
    /// slice's rate divided by the share of the CPU time the machine
    /// asked for around it that the hypervisor did not take, then the
    /// median over slices. On a host that steals nothing this is the
    /// plain slice median. A shared host takes a varying share of its
    /// vCPUs for seconds at a time, and the uncorrected figure falls with
    /// it; slices with no CPU time accounted around them are left out.
    pub fn goodput_steal_corrected(&self) -> f64 {
        let n = self.slices.len();
        let mut rates: Vec<f64> = (0..n)
            .filter_map(|i| {
                let around = &self.slices
                    [i.saturating_sub(STEAL_NEIGHBOURS)..(i + STEAL_NEIGHBOURS + 1).min(n)];
                let cpu = around.iter().fold(CpuTicks::default(), |a, s| a.add(s.cpu));
                let stolen = cpu.stolen_share()?;
                Some(Self::rate(&self.slices[i]) / (1.0 - stolen))
            })
            .collect();
        if rates.is_empty() {
            return self.goodput_slice_median();
        }
        median(&mut rates)
    }

    /// Share of the CPU time asked for over the window that was stolen.
    pub fn stolen_share(&self) -> f64 {
        let cpu = self
            .slices
            .iter()
            .fold(CpuTicks::default(), |a, s| a.add(s.cpu));
        cpu.stolen_share().unwrap_or(0.0)
    }

    /// The median over slices of each slice's median latency, in µs
    /// (slices without a completion have no median and are skipped).
    pub fn p50_slice_median_us(&self) -> f64 {
        let mut p50s: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.latency.count() > 0)
            .map(|s| s.latency.quantile_us(0.5))
            .collect();
        median(&mut p50s)
    }
}

/// What a phase does with its requests and verdicts.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Writes that set up the keyspace: every one must be acked.
    Prefill,
    /// Measured (or warm-up) traffic: failures are counted, acked writes
    /// enter the write ledger.
    Load,
    /// Reads after the drain: every one must be acked with a value the
    /// write ledger allows.
    Readback,
}

/// What the load thread knows about one key's writes.
#[derive(Default)]
struct KeyWrites {
    touched: bool,
    /// Latest submission point of any acked write to the key.
    max_submit: u64,
    /// Acked writes (value, ack point) not known to be overwritten: an
    /// acked write whose ack was observed before another acked write was
    /// submitted cannot hold the final value.
    candidates: Vec<(u64, u64)>,
}

struct Pending {
    id: u64,
    request: Request,
    submitted: Instant,
    submit_seq: u64,
    root_span: u64,
}

pub struct Client {
    transport: Transport,
    window: usize,
    pending: HashMap<Handle, Pending>,
    next_id: u64,
    /// Logical clock of submissions and observed completions.
    seq: u64,
    keys: Vec<KeyWrites>,
    /// Every phase's verdicts, for the end-of-run accounting check.
    pub total: Tally,
}

impl Client {
    pub fn new(transport: Transport, w: &Workload) -> Client {
        Client {
            transport,
            window: w.window,
            pending: HashMap::new(),
            next_id: 1,
            seq: 0,
            keys: (0..w.keys).map(|_| KeyWrites::default()).collect(),
            total: Tally::default(),
        }
    }

    /// Run one phase: keep `window` requests outstanding, drawing them from
    /// `source` until it is exhausted or `until` passes, then drain.
    pub fn run(
        &mut self,
        mode: Mode,
        source: &mut dyn FnMut() -> Option<Request>,
        until: Option<Instant>,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Phase, String> {
        let start = Instant::now();
        let mut phase = Phase {
            tally: Tally::default(),
            ok_ops: 0,
            ok_ops_in_window: 0,
            window: Duration::ZERO,
            latency: LatHist::new(),
            slices: (0..until.map_or(0, |u| {
                ((u - start).as_secs_f64() / SLICE.as_secs_f64()).round() as usize
            }))
                .map(|_| Slice {
                    ok_ops: 0,
                    latency: LatHist::new(),
                    cpu: CpuTicks::default(),
                })
                .collect(),
        };
        let (submit_name, reap_name) = (self.transport.submit_name(), self.transport.reap_name());
        let mut now = start;
        let mut open = true;
        // CPU ticks are read when the first completion of a new slice is
        // observed and charged to the slice that ends there.
        let mut cur_slice = 0;
        let mut cpu_mark = if phase.slices.is_empty() {
            CpuTicks::default()
        } else {
            CpuTicks::read()
        };
        loop {
            while open && self.pending.len() < self.window {
                if until.is_some_and(|u| now >= u) {
                    open = false;
                    break;
                }
                let id = self.next_id;
                let gen_start = tracer.is_some().then(Instant::now);
                let Some(request) = source() else {
                    open = false;
                    break;
                };
                self.next_id += 1;
                let submitted = Instant::now();
                let verdict = self.transport.submit(request.ops())?;
                let mut root_span = 0;
                now = submitted;
                if let (Some(tr), Some(gen_start)) = (tracer.as_deref_mut(), gen_start) {
                    now = Instant::now();
                    tr.add(Name::ClientGen, gen_start, submitted);
                    tr.add(submit_name, submitted, now);
                    if Tracer::sampled(id) {
                        root_span = tr.reserve_id();
                        tr.record(Name::ClientGen, root_span, id, gen_start, submitted);
                        tr.record(submit_name, root_span, id, submitted, now);
                    }
                }
                self.seq += 1;
                phase.tally.attempted += 1;
                if mode == Mode::Load {
                    for op in request.ops() {
                        if let MapOp::Insert(k, _) = op {
                            self.keys[*k as usize].touched = true;
                        }
                    }
                }
                match verdict {
                    Ok(handle) => {
                        self.pending.insert(
                            handle,
                            Pending {
                                id,
                                request,
                                submitted,
                                submit_seq: self.seq,
                                root_span,
                            },
                        );
                    }
                    Err(e) => {
                        Self::expect_ok(mode, &Err(e))?;
                        phase.tally.count_failure(e)?;
                    }
                }
            }
            if self.pending.is_empty() {
                break;
            }
            let reap_start = now;
            let reaped = self.transport.reap()?;
            now = Instant::now();
            if let Some(tr) = tracer.as_deref_mut() {
                tr.add(reap_name, reap_start, now);
            }
            let Some((handle, reply)) = reaped else {
                continue;
            };
            let Some(p) = self.pending.remove(&handle) else {
                return Err(format!(
                    "completion for a request that is not outstanding: {handle:?}"
                ));
            };
            self.seq += 1;
            phase.latency.record(now - p.submitted);
            let in_window = until.is_none_or(|u| now < u);
            let slice_idx = ((now - start).as_nanos() / SLICE.as_nanos()) as usize;
            if slice_idx > cur_slice && cur_slice < phase.slices.len() {
                let cpu = CpuTicks::read();
                phase.slices[cur_slice].cpu = cpu.since(cpu_mark);
                (cpu_mark, cur_slice) = (cpu, slice_idx);
            }
            let mut slice = phase.slices.get_mut(slice_idx);
            if let Some(s) = slice.as_mut() {
                s.latency.record(now - p.submitted);
            }
            if let Some(tr) = tracer.as_deref_mut() {
                if Tracer::sampled(p.id) {
                    tr.record(reap_name, p.root_span, p.id, reap_start, now);
                    tr.record_with_id(p.root_span, 0, Name::ClientRequest, p.id, p.submitted, now);
                }
            }
            Self::expect_ok(mode, &reply)?;
            match reply {
                Ok(values) => {
                    let ops = p.request.ops();
                    if values.len() != ops.len() {
                        return Err(format!(
                            "ack carries {} values for {} ops",
                            values.len(),
                            ops.len()
                        ));
                    }
                    phase.tally.ok += 1;
                    phase.ok_ops += ops.len() as u64;
                    if in_window {
                        phase.ok_ops_in_window += ops.len() as u64;
                        if let Some(s) = slice {
                            s.ok_ops += ops.len() as u64;
                        }
                    }
                    match mode {
                        Mode::Load => self.ack_writes(ops, p.submit_seq),
                        Mode::Readback => self.check_read(ops[0], values[0])?,
                        Mode::Prefill => {}
                    }
                }
                Err(e) => phase.tally.count_failure(e)?,
            }
        }
        if cur_slice < phase.slices.len() {
            phase.slices[cur_slice].cpu = CpuTicks::read().since(cpu_mark);
        }
        phase.window = until.map_or(now, |u| u.min(now)) - start;
        self.total.absorb(&phase.tally);
        Ok(phase)
    }

    fn expect_ok(mode: Mode, reply: &Reply) -> Result<(), String> {
        match (mode, reply) {
            (Mode::Load, _) | (_, Ok(_)) => Ok(()),
            (Mode::Prefill, Err(e)) => Err(format!("prefill write not acked: {e}")),
            (Mode::Readback, Err(e)) => Err(format!("read-back not acked: {e}")),
        }
    }

    fn ack_writes(&mut self, ops: &[MapOp], submit_seq: u64) {
        for op in ops {
            if let MapOp::Insert(k, v) = *op {
                let kw = &mut self.keys[k as usize];
                kw.max_submit = kw.max_submit.max(submit_seq);
                kw.candidates.push((v, self.seq));
                let floor = kw.max_submit;
                kw.candidates.retain(|&(_, acked)| acked > floor);
            }
        }
    }

    fn check_read(&self, op: MapOp, got: Option<u64>) -> Result<(), String> {
        let MapOp::Get(k) = op else {
            return Err(format!("read-back sent a non-read op {op:?}"));
        };
        let kw = &self.keys[k as usize];
        let ok = if kw.candidates.is_empty() {
            let prefill = Workload::prefilled(k).then(|| Workload::prefill_value(k));
            got == prefill
        } else {
            got.is_some_and(|v| kw.candidates.iter().any(|&(c, _)| c == v))
        };
        if ok {
            Ok(())
        } else {
            let allowed: Vec<u64> = kw.candidates.iter().map(|&(v, _)| v).collect();
            Err(format!(
                "read-back mismatch on key {k}: read {got:?}, acked values allowed {allowed:?} (prefilled: {})",
                Workload::prefilled(k)
            ))
        }
    }

    /// Keys the load phases attempted to write.
    pub fn touched_keys(&self) -> Vec<u64> {
        (0..self.keys.len() as u64)
            .filter(|&k| self.keys[k as usize].touched)
            .collect()
    }

    /// Every attempted request resolved to exactly one counted verdict.
    pub fn check_accounting(&self) -> Result<(), String> {
        let t = &self.total;
        if !self.pending.is_empty() {
            return Err(format!("{} requests never resolved", self.pending.len()));
        }
        if t.attempted != t.ok + t.failed() {
            return Err(format!(
                "attempted {} != ok {} + failed {} ({t:?})",
                t.attempted,
                t.ok,
                t.failed()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase of equal slices: (ops acked, busy ticks, steal ticks).
    fn phase(slice: (u64, u64, u64), n: usize) -> Phase {
        let (ok_ops, busy, steal) = slice;
        Phase {
            tally: Tally::default(),
            ok_ops: 0,
            ok_ops_in_window: 0,
            window: Duration::ZERO,
            latency: LatHist::new(),
            slices: (0..n)
                .map(|_| Slice {
                    ok_ops,
                    latency: LatHist::new(),
                    cpu: CpuTicks { busy, steal },
                })
                .collect(),
        }
    }

    #[test]
    fn steal_correction_divides_by_the_share_granted() {
        // 100 ops in a 0.1 s slice with nothing stolen: 1000 ops/s as is.
        let quiet = phase((100, 20, 0), 9);
        assert_eq!(quiet.goodput_steal_corrected(), 1000.0);
        // A quarter of the asked-for CPU time stolen: 750 ops/s / (3/4).
        let stolen = phase((75, 15, 5), 9);
        assert!((stolen.goodput_steal_corrected() - 1000.0).abs() < 1e-9);
        assert!((stolen.stolen_share() - 0.25).abs() < 1e-12);
        // No CPU time accounted (no /proc/stat): left uncorrected.
        let blind = phase((75, 0, 0), 9);
        assert_eq!(blind.goodput_steal_corrected(), 750.0);
    }
}
