//! Synthetic get/put workloads and storage-age accounting.
//!
//! The paper deliberately uses very simple synthetic workloads (Section 4.3):
//! objects are equally likely to be read or written, object sizes are either
//! constant or drawn from a uniform distribution with the same mean, and
//! updates are whole-object safe writes.  Time is measured in **storage age**
//! — the ratio of bytes in objects that once existed on the volume to the
//! bytes currently live (Section 4.4), which for this workload is simply
//! "safe writes per object".

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How object sizes are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDistribution {
    /// Every object has exactly this size.
    Constant(u64),
    /// Sizes are drawn uniformly from `[min, max]`.
    Uniform {
        /// Smallest possible object size.
        min: u64,
        /// Largest possible object size.
        max: u64,
    },
}

impl SizeDistribution {
    /// The paper's uniform distribution with the same mean as a constant
    /// distribution: `Uniform[mean/2, 3*mean/2]`.
    pub fn uniform_around(mean: u64) -> Self {
        SizeDistribution::Uniform {
            min: mean / 2,
            max: mean + mean / 2,
        }
    }

    /// Mean object size of the distribution.
    pub fn mean(&self) -> u64 {
        match *self {
            SizeDistribution::Constant(size) => size,
            SizeDistribution::Uniform { min, max } => min.midpoint(max),
        }
    }

    /// Draws one object size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            SizeDistribution::Constant(size) => size,
            SizeDistribution::Uniform { min, max } => {
                if min >= max {
                    min
                } else {
                    Uniform::new_inclusive(min, max).sample(rng)
                }
            }
        }
    }

    /// Short, stable label used in reports ("Constant" / "Uniform" in
    /// Figure 5).
    pub fn label(&self) -> &'static str {
        match self {
            SizeDistribution::Constant(_) => "Constant",
            SizeDistribution::Uniform { .. } => "Uniform",
        }
    }
}

/// An interned object key: the workload's dense `u64` id.
///
/// Keys travel every [`WorkloadOp`], request and completion as this `Copy`
/// newtype, and reach a store through the
/// [`ObjectStore`](crate::ObjectStore) trait's keyed methods.  The object's
/// name is its canonical string form (`object-{:08}`, exactly what the
/// generator always produced, so layouts stay deterministic), and the name
/// is what the store files the object under.  [`crate::Store`] builds it
/// only to create, resolve or remove an object, and otherwise reaches the
/// object through its key table by the engine's handle; the trait's default
/// keyed methods build it for every call, with [`ObjectKey::write_into`],
/// which formats into a stack buffer instead of the heap.  Handed a name,
/// [`crate::Store`] takes it back to its key with [`ObjectKey::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ObjectKey(pub u64);

/// Stack buffer large enough for any [`ObjectKey`] string form
/// (`"object-"` plus up to 20 decimal digits).
pub type ObjectKeyBuf = [u8; 27];

impl ObjectKey {
    /// An empty [`ObjectKeyBuf`] for [`ObjectKey::write_into`].
    pub fn buf() -> ObjectKeyBuf {
        [0; 27]
    }

    /// Formats the canonical string form into a stack buffer, avoiding the
    /// heap allocation `to_string` would cost on a per-operation path.  The digits are written by hand, right to left and
    /// zero-padded to eight, so no operation enters `core::fmt`.
    pub fn write_into(self, buf: &mut ObjectKeyBuf) -> &str {
        const PREFIX: &[u8] = b"object-";
        let mut start = buf.len();
        let mut rest = self.0;
        while rest > 0 || start > buf.len() - 8 {
            start -= 1;
            buf[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        start -= PREFIX.len();
        buf[start..start + PREFIX.len()].copy_from_slice(PREFIX);
        std::str::from_utf8(&buf[start..]).expect("the key form is pure ASCII")
    }

    /// The key whose string form is `name`, if it is one: the exact
    /// inverse of [`ObjectKey::write_into`].  That form is `object-`
    /// followed by exactly 8 digits, or by 9 to 20 digits with no leading
    /// zero, within `u64`, so `object-000000042` and `object-0000042` name
    /// other objects than `ObjectKey(42)` and parse to `None`.
    pub fn parse(name: &str) -> Option<ObjectKey> {
        let digits = name.strip_prefix("object-")?.as_bytes();
        let canonical = match digits.len() {
            8 => true,
            9..=20 => digits[0] != b'0',
            _ => false,
        };
        if !canonical {
            return None;
        }
        digits
            .iter()
            .try_fold(0u64, |number, &digit| {
                let digit = digit.checked_sub(b'0').filter(|&d| d < 10)?;
                number.checked_mul(10)?.checked_add(u64::from(digit))
            })
            .map(ObjectKey)
    }
}

impl std::fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.write_into(&mut ObjectKey::buf()))
    }
}

/// One operation of the synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Store a new object.
    Put {
        /// Object key.
        key: ObjectKey,
        /// Object size in bytes.
        size: u64,
    },
    /// Read an existing object in full.
    Get {
        /// Object key.
        key: ObjectKey,
    },
    /// Replace an existing object with a new version (safe write).
    SafeWrite {
        /// Object key.
        key: ObjectKey,
        /// New version size in bytes.
        size: u64,
    },
    /// Delete an existing object.
    Delete {
        /// Object key.
        key: ObjectKey,
    },
}

impl WorkloadOp {
    /// Lowercase label used in trace spans and figures.
    pub fn kind_name(&self) -> &'static str {
        match self {
            WorkloadOp::Put { .. } => "put",
            WorkloadOp::Get { .. } => "get",
            WorkloadOp::SafeWrite { .. } => "safe-write",
            WorkloadOp::Delete { .. } => "delete",
        }
    }
}

/// Parameters of the synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Object-size distribution.
    pub sizes: SizeDistribution,
    /// Number of live objects the store holds after bulk load.
    pub object_count: u64,
    /// RNG seed; the generator is fully deterministic given the seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The number of objects that fit a store of `capacity_bytes` at
    /// `occupancy` (e.g. 0.5 for the paper's 50%-full volumes).
    pub fn objects_for_occupancy(
        capacity_bytes: u64,
        mean_object_size: u64,
        occupancy: f64,
    ) -> u64 {
        ((capacity_bytes as f64 * occupancy.clamp(0.0, 1.0)) / mean_object_size.max(1) as f64)
            .floor() as u64
    }
}

/// Deterministic generator of the paper's workload phases.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    rng: StdRng,
    /// Keys created so far.  Nothing removes or reorders a key, so the live
    /// keys are `ObjectKey(0)` to `ObjectKey(next_key - 1)` in creation
    /// order, and the Zipf samplers' rank `k` is `ObjectKey(k - 1)`.
    next_key: u64,
    /// Cached distribution, rebuilt only when `(population, theta)` changes —
    /// the O(n) harmonic loop must not run once per sampled batch.
    zipf_cache: Option<ZipfDistribution>,
}

impl WorkloadGenerator {
    /// Creates a generator for the given spec.
    pub fn new(spec: WorkloadSpec) -> Self {
        let rng = StdRng::seed_from_u64(spec.seed);
        WorkloadGenerator {
            spec,
            rng,
            next_key: 0,
            zipf_cache: None,
        }
    }

    /// Keys of the objects currently live, in creation order.
    pub fn live_keys(&self) -> impl ExactSizeIterator<Item = ObjectKey> + Clone {
        (0..self.live_count()).map(|key| ObjectKey(key as u64))
    }

    /// Number of live objects, as the `usize` the samplers draw indices in.
    fn live_count(&self) -> usize {
        self.next_key as usize
    }

    /// Every live key once, as `op(key)`, in a random order: Fisher-Yates
    /// with the generator's own RNG keeps the run deterministic for a given
    /// seed.  The ops are shuffled where they lie, so a round allocates
    /// nothing but the `Vec` it returns.
    fn shuffled(&mut self, op: fn(ObjectKey) -> WorkloadOp) -> Vec<WorkloadOp> {
        let mut ops: Vec<WorkloadOp> = self.live_keys().map(op).collect();
        for i in (1..ops.len()).rev() {
            ops.swap(i, self.rng.gen_range(0..=i));
        }
        ops
    }

    /// The bulk-load phase: one `Put` per object.
    pub fn bulk_load(&mut self) -> Vec<WorkloadOp> {
        (0..self.spec.object_count)
            .map(|_| {
                let key = ObjectKey(self.next_key);
                self.next_key += 1;
                WorkloadOp::Put {
                    key,
                    size: self.spec.sizes.sample(&mut self.rng),
                }
            })
            .collect()
    }

    /// One aging round: every live object is safe-written exactly once, in a
    /// random order.  Running `n` rounds advances the storage age by `n`.
    pub fn overwrite_round(&mut self) -> Vec<WorkloadOp> {
        let mut ops = self.shuffled(|key| WorkloadOp::SafeWrite { key, size: 0 });
        // The sizes are drawn after the order, in round order.
        for op in &mut ops {
            if let WorkloadOp::SafeWrite { size, .. } = op {
                *size = self.spec.sizes.sample(&mut self.rng);
            }
        }
        ops
    }

    /// A read phase: every live object is read exactly once, in a random
    /// order (the paper's randomized read benchmark).
    pub fn read_all(&mut self) -> Vec<WorkloadOp> {
        self.shuffled(|key| WorkloadOp::Get { key })
    }

    /// A random sample of `count` whole-object reads over the live
    /// population (with replacement), for open-loop arrival processes whose
    /// length is set by the offered rate and measurement duration rather
    /// than the population size.  Deterministic for a given generator state.
    pub fn read_sample(&mut self, count: usize) -> Vec<WorkloadOp> {
        if self.next_key == 0 {
            return Vec::new();
        }
        (0..count)
            .map(|_| WorkloadOp::Get {
                key: ObjectKey(self.rng.gen_range(0..self.live_count()) as u64),
            })
            .collect()
    }

    /// A random sample of `count` safe writes over the live population (with
    /// replacement), sizes drawn from the spec's distribution — the write
    /// class of the mixed open-loop sweeps.  Unlike
    /// [`WorkloadGenerator::overwrite_round`] this does not touch every
    /// object once, so it advances storage age in proportion to `count`.
    pub fn safe_write_sample(&mut self, count: usize) -> Vec<WorkloadOp> {
        if self.next_key == 0 {
            return Vec::new();
        }
        (0..count)
            .map(|_| WorkloadOp::SafeWrite {
                key: ObjectKey(self.rng.gen_range(0..self.live_count()) as u64),
                size: self.spec.sizes.sample(&mut self.rng),
            })
            .collect()
    }
}

/// A Zipfian rank distribution over `1..=n`: `P(rank = k) ∝ 1/k^theta`.
///
/// The paper's own workloads touch every object uniformly, but fleet-scale
/// repositories serve skewed popularity — a handful of hot objects absorb
/// most reads and updates.  The `shard-sweep` scenarios use this sampler to
/// produce per-shard fragmentation *skew*: shards that own hot ranks age
/// faster than their siblings.
///
/// Sampling draws one uniform from the caller's RNG and binary-searches the
/// precomputed cumulative weights, so a draw is O(log n) and fully
/// deterministic for a given RNG state.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfDistribution {
    /// Population size (ranks run `1..=n`).
    n: usize,
    /// Skew exponent (`0.0` degenerates to uniform).
    theta: f64,
    /// `cumulative[k-1]` = sum of `1/i^theta` for `i in 1..=k`.
    cumulative: Vec<f64>,
}

impl ZipfDistribution {
    /// Builds the distribution over ranks `1..=n` with skew `theta`.
    /// `n` is clamped to at least 1; `theta` to `[0, 16]`.
    pub fn new(n: usize, theta: f64) -> Self {
        let n = n.max(1);
        let theta = if theta.is_finite() {
            theta.clamp(0.0, 16.0)
        } else {
            0.0
        };
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 1..=n {
            total += (k as f64).powf(-theta);
            cumulative.push(total);
        }
        ZipfDistribution {
            n,
            theta,
            cumulative,
        }
    }

    /// `true` if this distribution is the one `ZipfDistribution::new(n,
    /// theta)` would build (after `new`'s clamping of both parameters) — the
    /// cache-validity check.
    pub fn matches(&self, n: usize, theta: f64) -> bool {
        let n = n.max(1);
        let theta = if theta.is_finite() {
            theta.clamp(0.0, 16.0)
        } else {
            0.0
        };
        self.n == n && self.theta == theta
    }

    /// The analytic probability of drawing `rank` (1-based).  Ranks outside
    /// `1..=n` have probability zero.  For `theta = 0` every rank's weight is
    /// exactly `1.0`, so the pmf is *exactly* `1 / n`.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 || rank > self.n {
            return 0.0;
        }
        let total = *self.cumulative.last().expect("population is at least 1");
        let below = if rank > 1 {
            self.cumulative[rank - 2]
        } else {
            0.0
        };
        (self.cumulative[rank - 1] - below) / total
    }

    /// Draws one rank in `1..=n` (rank 1 is the hottest).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("population is at least 1");
        let u: f64 = rng.gen_range(1e-12..1.0) * total;
        // First index whose cumulative weight reaches the draw.
        match self
            .cumulative
            .binary_search_by(|w| w.partial_cmp(&u).expect("weights are finite"))
        {
            Ok(index) | Err(index) => index.min(self.n - 1) + 1,
        }
    }
}

impl WorkloadGenerator {
    /// A Zipf-skewed sample of `count` whole-object reads over the live
    /// population (rank 1 = the first-created live object is hottest).
    /// Deterministic for a given generator state; empty population yields
    /// an empty sample.
    pub fn zipf_read_sample(&mut self, count: usize, theta: f64) -> Vec<WorkloadOp> {
        if self.next_key == 0 {
            return Vec::new();
        }
        self.refresh_zipf_cache(theta);
        let Self {
            zipf_cache, rng, ..
        } = self;
        let zipf = zipf_cache.as_ref().expect("refreshed above");
        (0..count)
            .map(|_| WorkloadOp::Get {
                key: ObjectKey(zipf.sample(rng) as u64 - 1),
            })
            .collect()
    }

    /// A Zipf-skewed sample of `count` safe writes over the live population,
    /// sizes drawn from the spec's distribution.  The same hot ranks as
    /// [`WorkloadGenerator::zipf_read_sample`], so a mixed Zipfian workload
    /// reads and rewrites the same objects.
    pub fn zipf_safe_write_sample(&mut self, count: usize, theta: f64) -> Vec<WorkloadOp> {
        if self.next_key == 0 {
            return Vec::new();
        }
        self.refresh_zipf_cache(theta);
        let Self {
            spec,
            zipf_cache,
            rng,
            ..
        } = self;
        let zipf = zipf_cache.as_ref().expect("refreshed above");
        (0..count)
            .map(|_| WorkloadOp::SafeWrite {
                key: ObjectKey(zipf.sample(rng) as u64 - 1),
                size: spec.sizes.sample(rng),
            })
            .collect()
    }

    fn refresh_zipf_cache(&mut self, theta: f64) {
        let n = self.live_count();
        if self
            .zipf_cache
            .as_ref()
            .is_none_or(|zipf| !zipf.matches(n, theta))
        {
            self.zipf_cache = Some(ZipfDistribution::new(n, theta));
        }
    }
}

/// Storage-age accounting (Section 4.4).
///
/// Storage age is the ratio of bytes in objects that once existed on the
/// volume (and have since been deleted or replaced) to the bytes currently
/// live.  For the paper's pure safe-write workload it equals "safe writes per
/// object".
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StorageAgeTracker {
    /// Bytes belonging to object versions that no longer exist.
    pub dead_bytes: u64,
    /// Bytes of currently live object versions.
    pub live_bytes: u64,
}

impl StorageAgeTracker {
    /// Creates a tracker with nothing stored.
    pub fn new() -> Self {
        StorageAgeTracker::default()
    }

    /// Records a newly created object version.
    pub fn record_put(&mut self, size: u64) {
        self.live_bytes += size;
    }

    /// Records a safe write replacing `old_size` with `new_size`.
    pub fn record_safe_write(&mut self, old_size: u64, new_size: u64) {
        self.dead_bytes += old_size;
        self.live_bytes = self.live_bytes - old_size + new_size;
    }

    /// The current storage age; zero when nothing is live.
    pub fn storage_age(&self) -> f64 {
        if self.live_bytes == 0 {
            0.0
        } else {
            self.dead_bytes as f64 / self.live_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// A spec of `object_count` 4 KB objects drawn with `seed`.
    fn four_kb_objects(object_count: u64, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            sizes: SizeDistribution::Constant(4096),
            object_count,
            seed,
        }
    }

    #[test]
    fn object_keys_format_to_the_legacy_string_form() {
        let mut buf = ObjectKey::buf();
        // `write_into`, `Display` and the pre-interning generator format all
        // agree — this is what keeps layouts bit-identical across the change.
        assert_eq!(ObjectKey(7).write_into(&mut buf), "object-00000007");
        assert_eq!(ObjectKey(7).to_string(), "object-00000007");
        assert_eq!(
            ObjectKey(123_456_789).write_into(&mut buf),
            "object-123456789"
        );
        assert_eq!(
            ObjectKey(u64::MAX).write_into(&mut buf),
            format!("object-{}", u64::MAX)
        );
    }

    #[test]
    fn constant_distribution_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let dist = SizeDistribution::Constant(4096);
        assert_eq!(dist.mean(), 4096);
        assert_eq!(dist.label(), "Constant");
        for _ in 0..100 {
            assert_eq!(dist.sample(&mut rng), 4096);
        }
    }

    #[test]
    fn uniform_distribution_matches_the_papers_construction() {
        let dist = SizeDistribution::uniform_around(10 << 20);
        assert_eq!(dist.mean(), 10 << 20);
        assert_eq!(dist.label(), "Uniform");
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = 0u64;
        let n = 2_000;
        for _ in 0..n {
            let sample = dist.sample(&mut rng);
            assert!((5 << 20..=15 << 20).contains(&sample));
            total += sample;
        }
        let mean = total as f64 / n as f64;
        let expected = (10u64 << 20) as f64;
        assert!(
            (mean - expected).abs() / expected < 0.02,
            "sample mean {mean} vs {expected}"
        );
    }

    #[test]
    fn generator_is_deterministic_for_a_seed() {
        let spec = four_kb_objects(16, 99);
        let mut a = WorkloadGenerator::new(spec.clone());
        let mut b = WorkloadGenerator::new(spec);
        assert_eq!(a.bulk_load(), b.bulk_load());
        assert_eq!(a.overwrite_round(), b.overwrite_round());
        assert_eq!(a.read_all(), b.read_all());
    }

    #[test]
    fn bulk_load_creates_distinct_keys() {
        let mut generator = WorkloadGenerator::new(four_kb_objects(100, 42));
        let ops = generator.bulk_load();
        assert_eq!(ops.len(), 100);
        let keys: std::collections::HashSet<_> = ops
            .iter()
            .map(|op| match op {
                WorkloadOp::Put { key, .. } => *key,
                _ => panic!("bulk load must only contain puts"),
            })
            .collect();
        assert_eq!(keys.len(), 100);
        assert_eq!(generator.live_keys().len(), 100);
    }

    #[test]
    fn overwrite_round_touches_every_object_once() {
        let mut generator = WorkloadGenerator::new(four_kb_objects(50, 42));
        generator.bulk_load();
        let ops = generator.overwrite_round();
        assert_eq!(ops.len(), 50);
        let keys: std::collections::HashSet<_> = ops
            .iter()
            .map(|op| match op {
                WorkloadOp::SafeWrite { key, .. } => *key,
                _ => panic!("overwrite rounds must only contain safe writes"),
            })
            .collect();
        assert_eq!(keys.len(), 50, "each object is overwritten exactly once");
    }

    #[test]
    fn sampled_ops_cover_only_live_keys_and_are_deterministic() {
        let spec = four_kb_objects(30, 5);
        let mut a = WorkloadGenerator::new(spec.clone());
        let mut b = WorkloadGenerator::new(spec);
        a.bulk_load();
        b.bulk_load();
        let reads = a.read_sample(100);
        assert_eq!(reads, b.read_sample(100));
        assert_eq!(reads.len(), 100);
        for op in &reads {
            let WorkloadOp::Get { key } = op else {
                panic!("read sample must contain only gets");
            };
            assert!(a.live_keys().any(|live| live == *key));
        }
        let writes = a.safe_write_sample(50);
        assert_eq!(writes, b.safe_write_sample(50));
        for op in &writes {
            let WorkloadOp::SafeWrite { key, size } = op else {
                panic!("write sample must contain only safe writes");
            };
            assert!(a.live_keys().any(|live| live == *key));
            assert_eq!(*size, 4096);
        }
        // An empty population yields empty samples instead of panicking.
        let mut empty = WorkloadGenerator::new(four_kb_objects(0, 42));
        assert!(empty.read_sample(4).is_empty());
        assert!(empty.safe_write_sample(4).is_empty());
    }

    #[test]
    fn zipf_distribution_is_skewed_deterministic_and_bounded() {
        let zipf = ZipfDistribution::new(100, 1.2);
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            let rank = zipf.sample(&mut a);
            assert_eq!(rank, zipf.sample(&mut b), "same seed, same draw");
            assert!((1..=100).contains(&rank));
            counts[rank - 1] += 1;
        }
        // Rank 1 must dominate the tail decisively at theta 1.2.
        assert!(
            counts[0] > 4 * counts[9],
            "head {} tail {}",
            counts[0],
            counts[9]
        );
        let head: usize = counts[..10].iter().sum();
        assert!(head > 10_000, "top 10% of ranks should absorb most draws");

        // theta 0 degenerates to uniform: no rank should dominate.
        let uniform = ZipfDistribution::new(50, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 50];
        for _ in 0..20_000 {
            counts[uniform.sample(&mut rng) - 1] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*max < 2 * *min, "uniform draws must stay balanced");
    }

    #[test]
    fn zipf_samples_cover_only_live_keys_and_are_deterministic() {
        let spec = four_kb_objects(40, 13);
        let mut a = WorkloadGenerator::new(spec.clone());
        let mut b = WorkloadGenerator::new(spec);
        a.bulk_load();
        b.bulk_load();
        let reads = a.zipf_read_sample(200, 1.0);
        assert_eq!(reads, b.zipf_read_sample(200, 1.0));
        assert_eq!(reads.len(), 200);
        let mut hits = std::collections::HashMap::new();
        for op in &reads {
            let WorkloadOp::Get { key } = op else {
                panic!("zipf read sample must contain only gets");
            };
            assert!(a.live_keys().any(|live| live == *key));
            *hits.entry(*key).or_insert(0usize) += 1;
        }
        // The hottest key (rank 1 = first created) must clearly lead.
        let first = a.live_keys().next().unwrap();
        let hottest = hits.values().max().copied().unwrap();
        assert_eq!(hits.get(&first).copied().unwrap_or(0), hottest);

        let writes = a.zipf_safe_write_sample(50, 1.0);
        assert_eq!(writes, b.zipf_safe_write_sample(50, 1.0));
        for op in &writes {
            let WorkloadOp::SafeWrite { key, size } = op else {
                panic!("zipf write sample must contain only safe writes");
            };
            assert!(a.live_keys().any(|live| live == *key));
            assert_eq!(*size, 4096);
        }
        let mut empty = WorkloadGenerator::new(four_kb_objects(0, 42));
        assert!(empty.zipf_read_sample(4, 1.0).is_empty());
        assert!(empty.zipf_safe_write_sample(4, 1.0).is_empty());
    }

    #[test]
    fn objects_for_occupancy_matches_the_papers_setups() {
        // 40 GB volume, 50% full, 10 MB objects -> ~2000 objects.
        let objects = WorkloadSpec::objects_for_occupancy(40_000_000_000, 10 << 20, 0.5);
        assert!((1_900..=2_000).contains(&objects), "got {objects}");
        // 4 GB volume, 90% full, 10 MB objects -> a pool of ~40 free objects.
        let live = WorkloadSpec::objects_for_occupancy(4_000_000_000, 10 << 20, 0.9);
        let free = WorkloadSpec::objects_for_occupancy(4_000_000_000, 10 << 20, 1.0) - live;
        assert!((30..=45).contains(&free), "got {free}");
    }

    #[test]
    fn storage_age_is_safe_writes_per_object_for_constant_sizes() {
        let mut tracker = StorageAgeTracker::new();
        let size = 1 << 20;
        for _ in 0..100 {
            tracker.record_put(size);
        }
        assert_eq!(tracker.storage_age(), 0.0);
        // Two full overwrite rounds -> storage age 2.
        for _ in 0..2 {
            for _ in 0..100 {
                tracker.record_safe_write(size, size);
            }
        }
        assert!((tracker.storage_age() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn storage_age_of_an_empty_store_is_zero() {
        assert_eq!(StorageAgeTracker::new().storage_age(), 0.0);
    }

    #[test]
    fn zipf_rank_k_draws_the_kth_live_key() {
        let spec = four_kb_objects(48, 7);
        let mut generator = WorkloadGenerator::new(spec.clone());
        generator.bulk_load();
        // Replay the samplers' rank draws on a twin RNG: the generator's own
        // RNG has drawn one size per bulk-loaded object, so the twin does too.
        let mut twin = StdRng::seed_from_u64(spec.seed);
        for _ in 0..spec.object_count {
            spec.sizes.sample(&mut twin);
        }
        let zipf = ZipfDistribution::new(48, 1.0);
        let live: Vec<ObjectKey> = generator.live_keys().collect();
        for op in generator.zipf_read_sample(64, 1.0) {
            let WorkloadOp::Get { key } = op else {
                panic!("zipf read sample must contain only gets");
            };
            assert_eq!(key, live[zipf.sample(&mut twin) - 1]);
        }
        for op in generator.zipf_safe_write_sample(64, 1.0) {
            let WorkloadOp::SafeWrite { key, size } = op else {
                panic!("zipf write sample must contain only safe writes");
            };
            assert_eq!(key, live[zipf.sample(&mut twin) - 1]);
            assert_eq!(size, spec.sizes.sample(&mut twin));
        }
    }

    #[test]
    fn zipf_cache_validity_and_exact_uniform_pmf() {
        let zipf = ZipfDistribution::new(100, 1.2);
        assert!(zipf.matches(100, 1.2));
        assert!(!zipf.matches(99, 1.2));
        assert!(!zipf.matches(100, 0.8));
        // `matches` applies the constructor's clamping, so the degenerate
        // inputs compare equal to their clamped forms.
        assert!(ZipfDistribution::new(0, f64::NAN).matches(1, 0.0));
        assert!(ZipfDistribution::new(10, 99.0).matches(10, 99.0));

        // theta = 0: every weight is exactly 1.0, so the pmf is exactly
        // uniform, not merely close.
        let uniform = ZipfDistribution::new(64, 0.0);
        for rank in 1..=64 {
            assert_eq!(uniform.pmf(rank), 1.0 / 64.0);
        }
        assert_eq!(uniform.pmf(0), 0.0);
        assert_eq!(uniform.pmf(65), 0.0);
        // The pmf sums to one for skewed thetas too.
        let skewed = ZipfDistribution::new(32, 1.2);
        let total: f64 = (1..=32).map(|rank| skewed.pmf(rank)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    /// `write_into` and `to_string` against the formatter they replaced.
    fn assert_key_forms(n: u64) {
        let mut buf = ObjectKey::buf();
        let expected = format!("object-{n:08}");
        assert!(expected.len() <= buf.len());
        assert_eq!(ObjectKey(n).write_into(&mut buf), expected);
        assert_eq!(ObjectKey(n).to_string(), expected);
    }

    #[test]
    fn hand_written_key_digits_match_the_formatter_at_the_edges() {
        // Zero, the last padded value, the first unpadded one, the longest.
        for n in [0, 99_999_999, 100_000_000, u64::MAX] {
            assert_key_forms(n);
        }
    }

    /// `parse` inverts `write_into` at the edges, and refuses every name
    /// that is not exactly a key's string form, so a store never files such
    /// a name under a key.
    ///
    /// Mutations this catches (each made in a copy of the tree and seen to
    /// fail here): a leading zero accepted past 8 digits (`9..=20 => true`)
    /// fails on `object-000000042`; 7 digits accepted (`7..=8 => true`) on
    /// `object-0000042`; an overflow that wraps (`wrapping_mul` /
    /// `wrapping_add` for the checked pair) on 2⁶⁴.
    #[test]
    fn parse_inverts_the_key_form_and_refuses_every_other_name() {
        let mut buf = ObjectKey::buf();
        for n in [0, 42, 99_999_999, 100_000_000, u64::MAX] {
            let name = ObjectKey(n).write_into(&mut buf);
            assert_eq!(ObjectKey::parse(name), Some(ObjectKey(n)), "{name}");
        }
        for name in [
            "object-000000042",             // a leading zero past 8 digits
            "object-012345678901234567",    // ditto, longer
            "object-0000042",               // 7 digits
            "object-",                      // none
            "object-+0000042",              // a sign
            "object--0000042",              // ditto
            "object-18446744073709551616",  // 2⁶⁴
            "object-99999999999999999999",  // 20 digits past u64::MAX
            "object-123456789012345678901", // 21 digits
            "Object-00000042",              // a wrong prefix
            "objects00000042",
            "00000042",
            "object-00000042 ",  // trailing bytes
            "object-00000042\0", // ditto
            "object-0000004x",   // a non-digit
            "object-0000004٢",   // a non-ASCII digit
        ] {
            assert_eq!(ObjectKey::parse(name), None, "{name:?}");
        }
    }

    proptest! {
        /// Every digit count, not only the twenty a uniform `u64` nearly
        /// always has.
        #[test]
        fn hand_written_key_digits_match_the_formatter(n in any::<u64>(), shift in 0u32..64) {
            assert_key_forms(n >> shift);
        }

        /// `parse` inverts `write_into` at every digit count.
        #[test]
        fn parse_inverts_write_into(n in any::<u64>(), shift in 0u32..64) {
            let key = ObjectKey(n >> shift);
            prop_assert_eq!(ObjectKey::parse(key.write_into(&mut ObjectKey::buf())), Some(key));
        }

        /// Empirical rank frequencies converge on the analytic pmf for the
        /// uniform, moderate and strong skews the sweeps use.
        #[test]
        fn zipf_empirical_frequencies_converge_on_the_pmf(seed in 0u64..u64::MAX) {
            for &theta in &[0.0, 0.8, 1.2] {
                let n = 8;
                let zipf = ZipfDistribution::new(n, theta);
                let mut rng = StdRng::seed_from_u64(seed);
                let draws = 20_000usize;
                let mut counts = vec![0usize; n];
                for _ in 0..draws {
                    counts[zipf.sample(&mut rng) - 1] += 1;
                }
                for rank in 1..=n {
                    let expected = zipf.pmf(rank);
                    let observed = counts[rank - 1] as f64 / draws as f64;
                    // ~6 sigma for the largest pmf at 20k draws.
                    prop_assert!(
                        (observed - expected).abs() < 0.015 + 0.05 * expected,
                        "theta {}: rank {} observed {} expected {}",
                        theta, rank, observed, expected
                    );
                }
            }
        }
    }
}
