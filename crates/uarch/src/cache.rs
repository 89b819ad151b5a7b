//! Set-associative LRU caches and the two-level memory hierarchy of
//! Table 1: 16KB 2-way 64B-line IL1 (2 cycles), 16KB 4-way 64B-line DL1
//! (2 cycles), 256KB 4-way 128B-line unified L2 (8 cycles), 100-cycle
//! main memory.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// 16KB 2-way 64B-line, 2-cycle IL1 (Table 1).
    pub fn il1() -> CacheConfig {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 2,
            line_bytes: 64,
            hit_latency: 2,
        }
    }

    /// 16KB 4-way 64B-line, 2-cycle DL1 (Table 1).
    pub fn dl1() -> CacheConfig {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
            hit_latency: 2,
        }
    }

    /// 256KB 4-way 128B-line, 8-cycle unified L2 (Table 1).
    pub fn l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 256 * 1024,
            ways: 4,
            line_bytes: 128,
            hit_latency: 8,
        }
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Whether the line was present.
    pub hit: bool,
    /// Line-aligned address of a line evicted by the fill (misses only).
    pub evicted: Option<u64>,
}

/// A set-associative cache with true-LRU replacement.
///
/// The cache tracks presence only (no data); the functional value stream
/// comes from the oracle trace. [`Cache::access`] fills on miss and
/// reports the evicted line so callers can invalidate side structures —
/// which is exactly what the MOP pointer store needs when an I-cache line
/// (and the pointers riding on it) is replaced.
///
/// ```
/// use mos_uarch::cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::dl1());
/// assert!(!c.access(0x1000).hit);
/// assert!(c.access(0x1008).hit); // same 64B line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// (line address, lru tick) per way; `u64::MAX` = invalid.
    lines: Vec<(u64, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache.
    ///
    /// # Panics
    ///
    /// Panics unless line size and the resulting set count are powers of
    /// two and the geometry divides evenly.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.line_bytes.is_power_of_two());
        let sets = config.size_bytes / (config.ways * config.line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets,
            lines: vec![(u64::MAX, 0); sets * config.ways],
            config,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Geometry of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes as u64 - 1)
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = ((line / self.config.line_bytes as u64) as usize) & (self.sets - 1);
        set * self.config.ways..(set + 1) * self.config.ways
    }

    /// Access the line containing `addr`, filling it on a miss.
    pub fn access(&mut self, addr: u64) -> Access {
        self.tick += 1;
        let line = self.line_addr(addr);
        let tick = self.tick;
        let range = self.set_range(line);
        let set = &mut self.lines[range];
        if let Some(e) = set.iter_mut().find(|e| e.0 == line) {
            e.1 = tick;
            self.hits += 1;
            return Access {
                hit: true,
                evicted: None,
            };
        }
        self.misses += 1;
        let victim = set.iter_mut().min_by_key(|e| e.1).expect("non-empty set");
        let evicted = (victim.0 != u64::MAX).then_some(victim.0);
        *victim = (line, tick);
        Access {
            hit: false,
            evicted,
        }
    }

    /// Probe without filling or touching LRU state.
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        self.lines[self.set_range(line)].iter().any(|e| e.0 == line)
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Latency outcome of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Total latency in cycles, including the L1 hit latency.
    pub latency: u32,
    /// True if the access hit in the L1.
    pub l1_hit: bool,
    /// Line evicted from the L1, if the fill displaced one.
    pub l1_evicted: Option<u64>,
}

/// Two-level hierarchy: a private L1 in front of a unified L2 and a flat
/// main-memory latency.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1: Cache,
    l2: Cache,
    memory_latency: u32,
}

impl MemoryHierarchy {
    /// Compose an L1 and L2 with a main-memory latency (Table 1: 100).
    pub fn new(l1: Cache, l2: Cache, memory_latency: u32) -> MemoryHierarchy {
        MemoryHierarchy {
            l1,
            l2,
            memory_latency,
        }
    }

    /// Table 1 data side: DL1 + L2 + 100-cycle memory.
    pub fn data_side() -> MemoryHierarchy {
        MemoryHierarchy::new(
            Cache::new(CacheConfig::dl1()),
            Cache::new(CacheConfig::l2()),
            100,
        )
    }

    /// Table 1 instruction side: IL1 + L2 + 100-cycle memory.
    ///
    /// (The paper's L2 is unified; `mos-sim` routes instruction and data
    /// misses through one shared L2 instance instead of this convenience.)
    pub fn inst_side() -> MemoryHierarchy {
        MemoryHierarchy::new(
            Cache::new(CacheConfig::il1()),
            Cache::new(CacheConfig::l2()),
            100,
        )
    }

    /// Access `addr`, filling all levels on the way down.
    pub fn access(&mut self, addr: u64) -> MemAccess {
        let l1 = self.l1.access(addr);
        if l1.hit {
            return MemAccess {
                latency: self.l1.config().hit_latency,
                l1_hit: true,
                l1_evicted: None,
            };
        }
        let l2 = self.l2.access(addr);
        let latency = self.l1.config().hit_latency
            + self.l2.config().hit_latency
            + if l2.hit { 0 } else { self.memory_latency };
        MemAccess {
            latency,
            l1_hit: false,
            l1_evicted: l1.evicted,
        }
    }

    /// The L1 level.
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 level.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency: 2,
        })
    }

    #[test]
    fn same_line_hits() {
        let mut c = tiny();
        assert!(!c.access(0x0).hit);
        assert!(c.access(0x3f).hit);
        assert!(!c.access(0x40).hit, "next line is separate");
    }

    #[test]
    fn lru_eviction_reports_victim() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = sets * line = 256).
        c.access(0x000);
        c.access(0x100);
        let a = c.access(0x200);
        assert_eq!(a.evicted, Some(0x000), "LRU way is the victim");
        assert!(!c.access(0x000).hit);
        assert!(c.access(0x200).hit);
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = tiny();
        assert!(!c.probe(0x80));
        c.access(0x80);
        assert!(c.probe(0x80));
        let (h, m) = c.stats();
        assert_eq!((h, m), (0, 1), "probe must not count");
    }

    #[test]
    fn working_set_behaviour() {
        let mut c = Cache::new(CacheConfig::dl1());
        // Fits: 16KB working set re-accessed → ~all hits second pass.
        for addr in (0..16 * 1024u64).step_by(64) {
            c.access(addr);
        }
        let (_, misses_cold) = c.stats();
        for addr in (0..16 * 1024u64).step_by(64) {
            assert!(c.access(addr).hit);
        }
        assert_eq!(misses_cold, 256);
    }

    #[test]
    fn hierarchy_latencies() {
        let mut m = MemoryHierarchy::data_side();
        let first = m.access(0x4000);
        assert!(!first.l1_hit);
        assert_eq!(first.latency, 2 + 8 + 100, "cold miss goes to memory");
        let second = m.access(0x4000);
        assert!(second.l1_hit);
        assert_eq!(second.latency, 2);
    }

    #[test]
    fn l2_catches_l1_victims() {
        let mut m = MemoryHierarchy::data_side();
        // Walk far past DL1 capacity but within L2 capacity.
        for addr in (0..64 * 1024u64).step_by(64) {
            m.access(addr);
        }
        // 0x0 long since evicted from DL1 but resident in L2.
        let a = m.access(0x0);
        assert!(!a.l1_hit);
        assert_eq!(a.latency, 2 + 8);
    }
}
