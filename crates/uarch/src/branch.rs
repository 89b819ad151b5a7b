//! Branch prediction: combined bimodal/gshare with a selector, a branch
//! target buffer and a return-address stack.
//!
//! Sizes default to the paper's Table 1 — 4k-entry bimodal, 4k-entry
//! gshare, 4k-entry selector, 1k-entry 4-way BTB, 16-entry RAS. Direction
//! predictions speculatively update the global history register; the
//! simulator checkpoints and restores it across mispredictions via
//! [`CombinedPredictor::history`] / [`CombinedPredictor::restore_history`].

use std::rc::Rc;

/// A table of 2-bit saturating counters.
#[derive(Debug, Clone)]
struct CounterTable {
    counters: Vec<u8>,
}

impl CounterTable {
    fn new(entries: usize) -> CounterTable {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        // Initialize weakly taken, the usual SimpleScalar default.
        CounterTable {
            counters: vec![2; entries],
        }
    }

    fn index(&self, key: u64) -> usize {
        (key as usize) & (self.counters.len() - 1)
    }

    fn predict(&self, key: u64) -> bool {
        self.counters[self.index(key)] >= 2
    }

    fn update(&mut self, key: u64, taken: bool) {
        let idx = self.index(key);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// Configuration for [`CombinedPredictor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchConfig {
    /// Bimodal table entries (power of two).
    pub bimodal_entries: usize,
    /// Gshare table entries (power of two).
    pub gshare_entries: usize,
    /// Selector table entries (power of two).
    pub selector_entries: usize,
    /// Global-history length in bits.
    pub history_bits: u32,
    /// BTB entry count (power of two, total across ways).
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
}

impl Default for BranchConfig {
    /// Table 1 of the paper.
    fn default() -> BranchConfig {
        BranchConfig {
            bimodal_entries: 4096,
            gshare_entries: 4096,
            selector_entries: 4096,
            history_bits: 12,
            btb_entries: 1024,
            btb_ways: 4,
            ras_depth: 16,
        }
    }
}

/// Combined bimodal/gshare direction predictor (McFarling-style), as used
/// by the paper's machine model.
///
/// ```
/// use mos_uarch::branch::{BranchConfig, CombinedPredictor};
/// let mut p = CombinedPredictor::new(&BranchConfig::default());
/// // Train an always-taken branch.
/// for _ in 0..8 {
///     let (pred, h) = p.predict(0x400100);
///     p.update(0x400100, true, h);
/// }
/// assert!(p.predict(0x400100).0);
/// ```
#[derive(Debug, Clone)]
pub struct CombinedPredictor {
    bimodal: CounterTable,
    gshare: CounterTable,
    selector: CounterTable,
    history: u64,
    history_mask: u64,
}

impl CombinedPredictor {
    /// Build a predictor from `config`.
    pub fn new(config: &BranchConfig) -> CombinedPredictor {
        CombinedPredictor {
            bimodal: CounterTable::new(config.bimodal_entries),
            gshare: CounterTable::new(config.gshare_entries),
            selector: CounterTable::new(config.selector_entries),
            history: 0,
            history_mask: (1u64 << config.history_bits) - 1,
        }
    }

    fn keys(&self, pc: u64) -> (u64, u64, u64) {
        let pc_key = pc >> 2;
        (pc_key, pc_key ^ self.history, pc_key)
    }

    /// Predict the direction of the conditional branch at `pc`,
    /// speculatively shifting the prediction into the global history.
    /// Returns the prediction and the pre-prediction history, which must be
    /// passed back to [`CombinedPredictor::update`] (and to
    /// [`CombinedPredictor::restore_history`] on a squash).
    pub fn predict(&mut self, pc: u64) -> (bool, u64) {
        let (bk, gk, sk) = self.keys(pc);
        let use_gshare = self.selector.predict(sk);
        let pred = if use_gshare {
            self.gshare.predict(gk)
        } else {
            self.bimodal.predict(bk)
        };
        let checkpoint = self.history;
        self.history = ((self.history << 1) | u64::from(pred)) & self.history_mask;
        (pred, checkpoint)
    }

    /// Train the predictor with the resolved outcome of the branch at `pc`.
    /// `history_at_predict` is the checkpoint returned by
    /// [`CombinedPredictor::predict`] for this dynamic branch.
    pub fn update(&mut self, pc: u64, taken: bool, history_at_predict: u64) {
        let pc_key = pc >> 2;
        let gk = pc_key ^ history_at_predict;
        let bimodal_pred = self.bimodal.predict(pc_key);
        let gshare_pred = self.gshare.predict(gk);
        // Selector trains toward the component that was right (when they
        // disagree).
        if bimodal_pred != gshare_pred {
            self.selector.update(pc_key, gshare_pred == taken);
        }
        self.bimodal.update(pc_key, taken);
        self.gshare.update(gk, taken);
    }

    /// Current (speculative) global history.
    pub fn history(&self) -> u64 {
        self.history
    }

    /// Restore the global history after a squash: the checkpoint taken at
    /// the mispredicted branch, extended with its actual outcome.
    pub fn restore_history(&mut self, history_at_predict: u64, actual_taken: bool) {
        self.history = ((history_at_predict << 1) | u64::from(actual_taken)) & self.history_mask;
    }
}

/// Branch target buffer: set-associative, LRU, tagged by PC.
#[derive(Debug, Clone)]
pub struct Btb {
    ways: usize,
    sets: usize,
    /// (tag, target, lru) per way per set; `u64::MAX` tag = invalid.
    entries: Vec<(u64, u64, u64)>,
    tick: u64,
}

impl Btb {
    /// Build a BTB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible into power-of-two sets.
    pub fn new(entries: usize, ways: usize) -> Btb {
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "BTB sets must be a power of two");
        Btb {
            ways,
            sets,
            entries: vec![(u64::MAX, 0, 0); entries],
            tick: 0,
        }
    }

    fn set_range(&self, pc: u64) -> std::ops::Range<usize> {
        let set = ((pc >> 2) as usize) & (self.sets - 1);
        set * self.ways..(set + 1) * self.ways
    }

    /// Predicted target for the control instruction at `pc`, if present.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.tick += 1;
        let tag = pc >> 2;
        let range = self.set_range(pc);
        let tick = self.tick;
        for e in &mut self.entries[range] {
            if e.0 == tag {
                e.2 = tick;
                return Some(e.1);
            }
        }
        None
    }

    /// Install or refresh the target of the control instruction at `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        self.tick += 1;
        let tag = pc >> 2;
        let range = self.set_range(pc);
        let tick = self.tick;
        let set = &mut self.entries[range];
        if let Some(e) = set.iter_mut().find(|e| e.0 == tag) {
            e.1 = target;
            e.2 = tick;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|e| e.2)
            .expect("BTB set is non-empty");
        *victim = (tag, target, tick);
    }
}

/// Return-address stack with a fixed depth; pushes wrap around (oldest
/// entries are overwritten), as in hardware.
///
/// Snapshots share the stack contents copy-on-write: taking one only bumps
/// a reference count, and a push copies the stack only while a snapshot
/// of the current contents is outstanding.
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    stack: Rc<Vec<u64>>,
    top: usize,
    depth: usize,
}

/// A [`ReturnAddressStack`] state saved for squash recovery.
#[derive(Debug, Clone)]
pub struct RasSnapshot {
    stack: Rc<Vec<u64>>,
    top: usize,
}

impl ReturnAddressStack {
    /// Build a RAS of `depth` entries.
    pub fn new(depth: usize) -> ReturnAddressStack {
        assert!(depth > 0);
        ReturnAddressStack {
            stack: Rc::new(vec![0; depth]),
            top: 0,
            depth,
        }
    }

    /// Push a return address (on a call).
    pub fn push(&mut self, addr: u64) {
        self.top = (self.top + 1) % self.depth;
        Rc::make_mut(&mut self.stack)[self.top] = addr;
    }

    /// Pop the predicted return address (on a return).
    pub fn pop(&mut self) -> u64 {
        let v = self.stack[self.top];
        self.top = (self.top + self.depth - 1) % self.depth;
        v
    }

    /// Snapshot for squash recovery (shares the contents; no copy).
    pub fn snapshot(&self) -> RasSnapshot {
        RasSnapshot {
            stack: Rc::clone(&self.stack),
            top: self.top,
        }
    }

    /// Restore a snapshot taken by [`ReturnAddressStack::snapshot`].
    pub fn restore(&mut self, snap: RasSnapshot) {
        self.top = snap.top;
        self.stack = snap.stack;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_learns_biased_branch() {
        let mut p = CombinedPredictor::new(&BranchConfig::default());
        let pc = 0x40_0000;
        let mut correct = 0;
        for _ in 0..100 {
            let (pred, h) = p.predict(pc);
            if pred {
                correct += 1;
            }
            p.update(pc, true, h);
        }
        assert!(
            correct > 90,
            "always-taken branch should be learned: {correct}"
        );
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut p = CombinedPredictor::new(&BranchConfig::default());
        let pc = 0x40_0040;
        let mut correct = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            let (pred, h) = p.predict(pc);
            if pred == taken {
                correct += 1;
            } else {
                // Model the pipeline's squash recovery: history is restored
                // to the checkpoint extended with the actual outcome.
                p.restore_history(h, taken);
            }
            p.update(pc, taken, h);
        }
        // Bimodal alone would get ~50%; gshare captures the pattern.
        assert!(
            correct > 300,
            "alternating branch should be learned: {correct}"
        );
    }

    #[test]
    fn history_restore_round_trips() {
        let mut p = CombinedPredictor::new(&BranchConfig::default());
        let (_, h0) = p.predict(0x1000);
        let wrong_path_history = p.history();
        let _ = p.predict(0x2000); // wrong-path prediction pollutes history
        assert_ne!(p.history(), wrong_path_history << 1 | 99); // arbitrary
        p.restore_history(h0, true);
        assert_eq!(p.history() & 1, 1);
    }

    #[test]
    fn btb_hits_after_update_and_evicts_lru() {
        let mut btb = Btb::new(8, 2); // 4 sets x 2 ways
        assert_eq!(btb.lookup(0x100), None);
        btb.update(0x100, 0x500);
        assert_eq!(btb.lookup(0x100), Some(0x500));
        // Two more entries mapping to the same set (stride = sets*4 = 16).
        btb.update(0x110, 0x501);
        // Refresh 0x100 so 0x110 becomes the LRU way.
        assert_eq!(btb.lookup(0x100), Some(0x500));
        btb.update(0x120, 0x502);
        assert_eq!(btb.lookup(0x110), None, "LRU way was evicted");
        assert_eq!(btb.lookup(0x100), Some(0x500));
        assert_eq!(btb.lookup(0x120), Some(0x502));
    }

    #[test]
    fn ras_predicts_nested_returns() {
        let mut ras = ReturnAddressStack::new(16);
        ras.push(0x100);
        ras.push(0x200);
        assert_eq!(ras.pop(), 0x200);
        assert_eq!(ras.pop(), 0x100);
    }

    #[test]
    fn ras_snapshot_restores_across_wrong_path() {
        let mut ras = ReturnAddressStack::new(4);
        ras.push(0xA);
        let snap = ras.snapshot();
        ras.push(0xB); // wrong-path call
        ras.pop();
        ras.pop();
        ras.restore(snap);
        assert_eq!(ras.pop(), 0xA);
    }

    #[test]
    fn ras_overflow_wraps() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // overwrites 1
        assert_eq!(ras.pop(), 3);
        assert_eq!(ras.pop(), 2);
        assert_eq!(ras.pop(), 3, "wrapped stack re-reads overwritten slot");
    }
}
