//! The three named workloads and their deterministic op streams.
//!
//! A stream depends only on the workload name and the seed argument: the
//! service under test never influences which ops are generated, only how
//! far the load thread gets through the stream in the measured window.

use kvserve::{MapOp, RoutingTable, ServiceConfig};
use pmem::LatencyModel;
use std::time::Duration;

/// Ops one request carries at most (`ring-xshard` requests carry two).
const MAX_OPS: usize = 2;

/// Values written by the load thread start here, so they never collide
/// with prefill values (`key + 1`).
const VALUE_BASE: u64 = 1 << 40;

/// Every workload runs with these service settings.
pub const BATCH_MAX: usize = 8;
pub const RING_SLOTS: usize = 4096;

#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// One op per request: `Get` with probability `get_pct`%, else `Insert`.
    Single { get_pct: u64 },
    /// One atomic 2-key multi-`Insert` whose keys sit on different shards.
    CrossShard,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shards: usize,
    pub keys: u64,
    /// Requests the load thread keeps outstanding (the closed window).
    pub window: usize,
    /// Zipf skew of the key draw; 0 is uniform.
    pub zipf_theta: f64,
    pub shape: Shape,
    /// Drive the service through `kvserve::net` on loopback instead of a
    /// `Ring` in the same process.
    pub net: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ring-update",
        shards: 1,
        keys: 8192,
        window: 32,
        zipf_theta: 0.99,
        shape: Shape::Single { get_pct: 50 },
        net: false,
    },
    Workload {
        name: "wire-read",
        shards: 1,
        keys: 65536,
        window: 128,
        zipf_theta: 0.0,
        shape: Shape::Single { get_pct: 95 },
        net: true,
    },
    Workload {
        name: "ring-xshard",
        shards: 2,
        keys: 65536,
        window: 1,
        zipf_theta: 0.0,
        shape: Shape::CrossShard,
        net: false,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The service configuration every layer of the run shares. Sizes
    /// follow the repository's `service` bench so numbers stay comparable.
    pub fn service_config(&self) -> ServiceConfig {
        let keys = self.keys as usize;
        let mut cfg = ServiceConfig::new(self.shards);
        cfg.batch_max = BATCH_MAX;
        cfg.queue_depth = 4096;
        cfg.ring_slots = RING_SLOTS;
        cfg.buckets_per_shard = (keys / self.shards).next_power_of_two().max(64);
        cfg.heap_words_per_shard = (keys * 8 / self.shards).max(1 << 16);
        cfg.default_deadline = Duration::from_secs(2);
        cfg.nvhalt.pm.lat = LatencyModel::optane();
        cfg
    }

    /// Half the keyspace is present before the load starts, chosen by a
    /// hash bit so hot Zipf ranks land on both sides.
    pub fn prefilled(key: u64) -> bool {
        key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0
    }

    pub fn prefill_value(key: u64) -> u64 {
        key + 1
    }

    pub fn stream(&self, seed: u64) -> OpStream {
        OpStream::new(*self, seed)
    }
}

/// One generated request: up to [`MAX_OPS`] ops, copied by value so the
/// load thread keeps it for the write ledger without allocating.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    ops: [MapOp; MAX_OPS],
    len: u8,
}

impl Request {
    pub fn single(op: MapOp) -> Request {
        Request {
            ops: [op, op],
            len: 1,
        }
    }

    pub fn ops(&self) -> &[MapOp] {
        &self.ops[..self.len as usize]
    }
}

/// splitmix64: small, fast, and the same on every platform.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// YCSB Zipfian key draw (Gray et al.); the rank is scrambled so hot keys
/// are not adjacent. `theta = 0` draws uniformly.
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

/// The workload's request stream for one seed.
pub struct OpStream {
    shape: Shape,
    rng: Rng,
    keys: KeyGen,
    /// Shard placement of a fresh table, used only to build cross-shard
    /// pairs; it is a pure function of the key.
    routing: RoutingTable,
    writes: u64,
}

impl OpStream {
    fn new(w: Workload, seed: u64) -> OpStream {
        // FNV-1a of the name, so each workload has its own stream per seed.
        let name_hash = w.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        OpStream {
            shape: w.shape,
            rng: Rng::new(name_hash ^ seed.wrapping_mul(0x2545_f491_4f6c_dd1d)),
            keys: KeyGen::new(w.keys, w.zipf_theta),
            routing: RoutingTable::fresh(w.shards),
            writes: 0,
        }
    }

    fn next_value(&mut self) -> u64 {
        self.writes += 1;
        VALUE_BASE + self.writes
    }

    pub fn next_request(&mut self) -> Request {
        match self.shape {
            Shape::Single { get_pct } => {
                let key = self.keys.draw(&mut self.rng);
                if self.rng.next() % 100 < get_pct {
                    Request::single(MapOp::Get(key))
                } else {
                    let v = self.next_value();
                    Request::single(MapOp::Insert(key, v))
                }
            }
            Shape::CrossShard => {
                let a = self.keys.draw(&mut self.rng);
                let b = loop {
                    let b = self.keys.draw(&mut self.rng);
                    if self.routing.route(b) != self.routing.route(a) {
                        break b;
                    }
                };
                let (va, vb) = (self.next_value(), self.next_value());
                Request {
                    ops: [MapOp::Insert(a, va), MapOp::Insert(b, vb)],
                    len: 2,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(w: Workload, seed: u64) -> Vec<Vec<MapOp>> {
        let mut s = w.stream(seed);
        (0..64).map(|_| s.next_request().ops().to_vec()).collect()
    }

    #[test]
    fn stream_depends_only_on_workload_and_seed() {
        for w in WORKLOADS {
            assert_eq!(first(w, 7), first(w, 7));
            assert_ne!(first(w, 7), first(w, 8));
        }
    }

    #[test]
    fn cross_shard_requests_span_both_shards() {
        let w = Workload::by_name("ring-xshard").unwrap();
        let table = RoutingTable::fresh(2);
        let mut s = w.stream(1);
        for _ in 0..1000 {
            let r = s.next_request();
            let [MapOp::Insert(a, _), MapOp::Insert(b, _)] = r.ops() else {
                panic!("cross-shard request must be two inserts");
            };
            assert_ne!(table.route(*a), table.route(*b));
        }
    }
}
