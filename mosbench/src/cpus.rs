//! Moving the benchmark's one thread between the CPUs it may use.
//!
//! On the reference host (a 2-vCPU KVM guest) one vCPU often runs this
//! code about 1.6× slower than the other for minutes at a time, and a
//! process that stays on it is slow in every round. Spreading the timed
//! rounds over all allowed CPUs lets best-of-R pick the faster one. Where
//! the affinity calls are unavailable, nothing is pinned and every round
//! runs wherever the scheduler puts it.

/// The CPUs this process may run on, in ascending order.
#[derive(Debug, Clone)]
pub struct Cpus(Vec<usize>);

impl Cpus {
    /// The CPUs in this thread's affinity mask (none when it cannot be
    /// read).
    pub fn allowed() -> Cpus {
        Cpus(sys::allowed())
    }

    /// How many CPUs rounds rotate over (at least one).
    pub fn count(&self) -> usize {
        self.0.len().max(1)
    }

    /// Pin this thread to the `k`-th allowed CPU (modulo their number);
    /// a no-op when pinning is unavailable.
    pub fn pin(&self, k: usize) {
        if let Some(&cpu) = self.0.get(k % self.count()) {
            sys::set(&[cpu]);
        }
    }

    /// Let this thread run on every allowed CPU again.
    pub fn release(&self) {
        if !self.0.is_empty() {
            sys::set(&self.0);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub(super) fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    pub(super) fn set(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub(super) fn set(_: &[usize]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_rotates_over_the_allowed_cpus_and_releases() {
        let cpus = Cpus::allowed();
        for k in 0..cpus.count() {
            cpus.pin(k);
            if let Some(&cpu) = cpus.0.get(k) {
                assert_eq!(Cpus::allowed().0, [cpu]);
            }
        }
        cpus.release();
        assert_eq!(Cpus::allowed().0, cpus.0);
    }
}
