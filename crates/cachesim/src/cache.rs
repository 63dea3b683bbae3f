//! A set-associative LRU cache model.
//!
//! Deliberately simple: one level, true LRU per set, no prefetching. This
//! is the standard first-order model for comparing the *relative* locality
//! of traversal orders, which is all Fig. 4 needs.

/// Geometry of the simulated cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Cache line size in bytes (power of two).
    pub line_size: usize,
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// A small L3-like cache: 64 B lines × 1024 sets × 16 ways = 1 MiB.
    /// (Scaled down from the paper's 18 MB Xeon L3 in proportion to our
    /// scaled-down graphs.)
    pub fn l3_like() -> Self {
        Self {
            line_size: 64,
            sets: 1024,
            ways: 16,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.line_size * self.sets * self.ways
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss fraction in `[0, 1]`; 0 for an empty trace.
    pub fn miss_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One cache level with true-LRU sets.
pub struct Cache {
    config: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// Last-use stamp parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_size.is_power_of_two());
        assert!(config.sets.is_power_of_two());
        assert!(config.ways >= 1);
        Self {
            line_shift: config.line_size.trailing_zeros(),
            set_mask: (config.sets - 1) as u64,
            tags: vec![u64::MAX; config.sets * config.ways],
            stamps: vec![0; config.sets * config.ways],
            clock: 0,
            stats: CacheStats::default(),
            config,
        }
    }

    /// Access one byte address; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set * self.config.ways;
        let ways = &mut self.tags[base..base + self.config.ways];
        // Hit?
        if let Some(w) = ways.iter().position(|&t| t == line) {
            self.stamps[base + w] = self.clock;
            return true;
        }
        // Miss: evict LRU way.
        self.stats.misses += 1;
        let victim = (0..self.config.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .unwrap();
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 64 B lines, 4 sets, 2 ways = 512 B.
        Cache::new(CacheConfig {
            line_size: 64,
            sets: 4,
            ways: 2,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63), "same line");
        assert!(!c.access(64), "next line");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to set 0: line numbers 0, 4, 8 (sets = 4).
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a);
        c.access(b);
        c.access(a); // a now MRU, b LRU
        c.access(d); // evicts b
        assert!(c.access(a), "a survived");
        assert!(!c.access(b), "b was evicted");
    }

    #[test]
    fn sequential_scan_mostly_hits() {
        let mut c = Cache::new(CacheConfig::l3_like());
        for i in 0..100_000u64 {
            c.access(i * 4); // 16 consecutive u32 per 64B line
        }
        let s = c.stats();
        assert!(
            s.miss_fraction() < 0.08,
            "sequential scan should mostly hit: {}",
            s.miss_fraction()
        );
    }

    #[test]
    fn random_scan_over_large_footprint_mostly_misses() {
        let mut c = Cache::new(CacheConfig::l3_like());
        let footprint = 64 * 1024 * 1024u64; // 64 MiB >> 1 MiB cache
        let mut x = 0x12345u64;
        for _ in 0..100_000 {
            x = pgc_primitives_hash(x);
            c.access(x % footprint);
        }
        assert!(
            c.stats().miss_fraction() > 0.9,
            "random far accesses should miss: {}",
            c.stats().miss_fraction()
        );
    }

    // Local copy of the mixer to avoid a dev-dependency cycle.
    fn pgc_primitives_hash(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn capacity_math() {
        assert_eq!(CacheConfig::l3_like().capacity(), 1 << 20);
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig::l3_like());
        let ws = 512 * 1024u64; // half the capacity
        for round in 0..4 {
            for a in (0..ws).step_by(64) {
                c.access(a);
            }
            if round == 0 {
                continue;
            }
        }
        let s = c.stats();
        // Only the first pass misses: 1/4 of accesses.
        assert!(s.miss_fraction() < 0.3, "{}", s.miss_fraction());
    }
}
