//! Generic set-associative LRU cache bookkeeping.

use std::cell::Cell;

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Outcome of a cache lookup-with-allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was present. Carries its way index.
    Hit {
        /// Way within the set where the line was found.
        way: u32,
    },
    /// The line was absent and has been allocated. Carries the way it
    /// landed in and, if a dirty line was displaced, that victim's
    /// address.
    Miss {
        /// Way the new line was installed into.
        way: u32,
        /// Dirty victim written back, if any.
        writeback: Option<u64>,
    },
}

impl AccessResult {
    /// True for hits.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit { .. })
    }

    /// The way touched by this access.
    pub fn way(&self) -> u32 {
        match self {
            AccessResult::Hit { way } | AccessResult::Miss { way, .. } => *way,
        }
    }
}

/// Hit/miss/writeback counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }
}

/// A line's dirty bit, kept in the top bit of its stamp word. The LRU
/// tick counts accesses from 1, so it never reaches this bit.
const DIRTY: u64 = 1 << 63;

/// A set-associative write-back, write-allocate cache.
///
/// The directory is lazy and touch-ordered:
///
/// * a **slot table** holds one `u32` per set: 0 while the set has never
///   been touched, else 1 + the index of the set's block;
/// * a **block arena** holds one block per touched set, appended in
///   first-touch order. A block is `ways` tags followed by `ways` stamp
///   words; a stamp word is 0 for an invalid way, else the LRU tick of
///   the way's last access (larger = more recent) with its top bit set for
///   a dirty line. Lines are never invalidated, so a nonzero stamp is
///   the valid bit.
///
/// Three things follow:
///
/// * **resident memory follows the sets a run touches**, not capacity.
///   A fresh 128 MB LLC is a 512 KiB zeroed slot table plus an arena
///   reserved at `2 × lines` words (the same virtual size as a dense
///   directory) that no page backs until a block is appended. A run's
///   misses on random sets therefore fault in the arena densely, page
///   after page, instead of scattering faults over three dense arrays;
/// * **the arena never moves** — it is reserved once for every set, and
///   [`Clone`] keeps that reservation, so first touches never
///   reallocate or copy. A per-bank serving worker that only touches
///   its own banks gets a dense private directory without any storage
///   permutation;
/// * **probes of untouched sets read only their slot** —
///   [`Cache::probe`] and [`Cache::victim_way`] return `None` and way 0
///   without allocating.
#[derive(Debug)]
pub struct Cache {
    /// Per set: 0 = never touched, else 1 + its block index in `blocks`.
    slots: Vec<u32>,
    /// Blocks of `2 × ways` words (tags, then stamp words), one per
    /// touched set in first-touch order.
    blocks: Vec<u64>,
    sets: u64,
    ways: u32,
    line_shift: u32,
    tick: u64,
    stats: CacheStats,
}

/// Whether a directory can be recycled (see [`recycling`]): arenas of
/// at least 8 MiB (the STT-RAM and racetrack LLCs), which the allocator
/// maps fresh for every cache, with slot tables of at most 1 MiB, which
/// a recycled cache re-zeroes whole.
fn recycled(sets: usize, arena_words: usize) -> bool {
    arena_words >= 1 << 20 && sets <= 1 << 18
}

thread_local! {
    /// Whether this thread is inside [`recycling`].
    static RECYCLING: Cell<bool> = const { Cell::new(false) };
    /// The directory (slot table, arena) of the last recyclable cache
    /// dropped on this thread inside [`recycling`].
    static SPARE: Cell<Option<(Vec<u32>, Vec<u64>)>> = const { Cell::new(None) };
}

/// Runs `f` with directory recycling on for this thread. A large cache
/// (the STT-RAM and racetrack LLCs) dropped inside `f` leaves its
/// directory as the thread's spare, and a cache of the same geometry
/// built inside a later `recycling` call on the thread takes it over,
/// with its slots zeroed and its arena emptied, instead of mapping
/// fresh memory: the pages it had touched stay resident, so a sweep's
/// per-cell LLCs stop faulting their directories in afresh (about 1,100
/// page faults per 60k-access racetrack cell). A recycled cache behaves
/// exactly as a fresh one.
///
/// The spare outlives `f` so that the next call can take it; it is
/// freed when the thread exits or by [`release_spare`]. Outside
/// `recycling`, caches neither take nor leave a spare.
pub fn recycling<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            RECYCLING.set(self.0);
        }
    }
    let _restore = Restore(RECYCLING.replace(true));
    f()
}

/// Frees this thread's spare directory, if any (see [`recycling`]).
pub fn release_spare() {
    drop(SPARE.take());
}

impl Drop for Cache {
    fn drop(&mut self) {
        // During thread teardown the thread-locals may be gone; then the
        // directory is simply freed.
        let on = RECYCLING.try_with(Cell::get).unwrap_or(false);
        if on && recycled(self.slots.len(), self.blocks.capacity()) {
            let spare = (
                std::mem::take(&mut self.slots),
                std::mem::take(&mut self.blocks),
            );
            let _ = SPARE.try_with(|s| s.set(Some(spare)));
        }
    }
}

impl Clone for Cache {
    /// Copies the touched blocks into an arena with the same
    /// reservation (`Vec::clone` would drop the spare capacity, and the
    /// clone's next first touch would reallocate and copy).
    fn clone(&self) -> Self {
        let mut blocks = Vec::with_capacity(self.blocks.capacity());
        blocks.extend_from_slice(&self.blocks);
        Self {
            slots: self.slots.clone(),
            blocks,
            ..*self
        }
    }
}

impl Cache {
    /// Builds a cache of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless capacity divides evenly into sets of power-of-two
    /// lines, and unless the set count fits a `u32` slot.
    pub fn new(capacity_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!(ways > 0, "need at least one way");
        let total_lines = capacity_bytes / line_bytes as u64;
        assert!(
            total_lines.is_multiple_of(ways as u64) && total_lines > 0,
            "capacity {capacity_bytes} does not divide into {ways}-way sets"
        );
        let sets = total_lines / ways as u64;
        assert!(
            u32::try_from(sets).is_ok(),
            "{sets} sets overflow a u32 slot"
        );
        let (sets_n, arena_words) = (sets as usize, 2 * total_lines as usize);
        let spare = if RECYCLING.get() && recycled(sets_n, arena_words) {
            SPARE.take()
        } else {
            None
        };
        let (slots, blocks) = match spare {
            Some((mut slots, mut blocks))
                if slots.len() == sets_n && blocks.capacity() == arena_words =>
            {
                // A cache that touched no set left its slots zero (and
                // their pages untouched).
                if !blocks.is_empty() {
                    slots.fill(0);
                    blocks.clear();
                }
                (slots, blocks)
            }
            _ => (vec![0; sets_n], Vec::with_capacity(arena_words)),
        };
        Self {
            slots,
            blocks,
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// `set`'s block (tags, then stamp words), or `None` if the set has
    /// never been touched.
    fn block(&self, set: u64) -> Option<&[u64]> {
        let n = 2 * self.ways as usize;
        match self.slots[set as usize] {
            0 => None,
            slot => Some(&self.blocks[(slot as usize - 1) * n..][..n]),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        1 << self.line_shift
    }

    /// Counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The set index of `addr`.
    pub fn set_of(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) % self.sets
    }

    /// Looks up `addr` without touching LRU state or counters.
    /// Returns the way holding the line, if present.
    pub fn probe(&self, addr: u64) -> Option<u32> {
        let line_addr = addr >> self.line_shift;
        let tag = line_addr / self.sets;
        let (tags, stamps) = self
            .block(line_addr % self.sets)?
            .split_at(self.ways as usize);
        find_way(tags, stamps, tag).map(|w| w as u32)
    }

    /// The way a miss on `set` would allocate into right now (invalid
    /// way first, else LRU victim), without changing any state. This is
    /// exactly the way [`Cache::access`] would pick if called next.
    pub fn victim_way(&self, set: u64) -> u32 {
        self.block(set)
            .map_or(0, |b| lru_way(&b[self.ways as usize..]) as u32)
    }

    /// Looks up `addr`, allocating on miss (write-allocate) and
    /// evicting LRU. Returns what happened.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        self.tick += 1;
        let dirty = match kind {
            AccessKind::Read => {
                self.stats.reads += 1;
                0
            }
            AccessKind::Write => {
                self.stats.writes += 1;
                DIRTY
            }
        };
        let line_addr = addr >> self.line_shift;
        let tag = line_addr / self.sets;
        let set = line_addr % self.sets;
        let ways = self.ways as usize;
        let slot = &mut self.slots[set as usize];
        if *slot == 0 {
            // First touch: append an all-invalid block. The arena is
            // reserved for every set, so this never reallocates.
            self.blocks.resize(self.blocks.len() + 2 * ways, 0);
            *slot = (self.blocks.len() / (2 * ways)) as u32;
        }
        let base = (*slot as usize - 1) * 2 * ways;
        let (tags, stamps) = self.blocks[base..base + 2 * ways].split_at_mut(ways);

        if let Some(w) = find_way(tags, stamps, tag) {
            stamps[w] = self.tick | (stamps[w] & DIRTY) | dirty;
            self.stats.hits += 1;
            return AccessResult::Hit { way: w as u32 };
        }
        self.stats.misses += 1;
        let w = lru_way(stamps);
        let writeback = if stamps[w] & DIRTY != 0 {
            self.stats.writebacks += 1;
            Some((tags[w] * self.sets + set) << self.line_shift)
        } else {
            None
        };
        tags[w] = tag;
        stamps[w] = self.tick | dirty;
        AccessResult::Miss {
            way: w as u32,
            writeback,
        }
    }
}

/// The valid way of a block holding `tag`, if any.
fn find_way(tags: &[u64], stamps: &[u64], tag: u64) -> Option<usize> {
    tags.iter()
        .zip(stamps)
        .position(|(&t, &s)| t == tag && s != 0)
}

/// The way a miss allocates into: the first invalid way (stamp 0), else
/// the least recently used.
fn lru_way(stamps: &[u64]) -> usize {
    (0..stamps.len())
        .min_by_key(|&w| stamps[w] & !DIRTY)
        .expect("sets are never empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(512, 2, 64)
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.sets(), 4);
        assert_eq!(c.ways(), 2);
        assert_eq!(c.line_bytes(), 64);
    }

    #[test]
    fn hit_after_miss() {
        let mut c = small();
        assert!(!c.access(0x1000, AccessKind::Read).is_hit());
        assert!(c.access(0x1000, AccessKind::Read).is_hit());
        assert!(c.access(0x103F, AccessKind::Read).is_hit(), "same line");
        assert!(!c.access(0x1040, AccessKind::Read).is_hit(), "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 * 64).
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        c.access(a, AccessKind::Read); // a is now MRU
        c.access(d, AccessKind::Read); // evicts b
        assert!(c.access(a, AccessKind::Read).is_hit());
        assert!(!c.access(b, AccessKind::Read).is_hit());
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small();
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, AccessKind::Write);
        c.access(b, AccessKind::Read);
        match c.access(d, AccessKind::Read) {
            AccessResult::Miss {
                writeback: Some(wb),
                ..
            } => assert_eq!(wb, a),
            other => panic!("expected writeback of {a:#x}, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        for i in 0..3u64 {
            let r = c.access(i * 4 * 64, AccessKind::Read);
            if let AccessResult::Miss { writeback, .. } = r {
                assert_eq!(writeback, None);
            }
        }
    }

    #[test]
    fn stats_balance() {
        let mut c = small();
        for i in 0..1000u64 {
            c.access((i * 67) % 4096, AccessKind::Read);
        }
        let s = *c.stats();
        assert_eq!(s.hits + s.misses, 1000);
        assert_eq!(s.accesses(), 1000);
        assert!(s.miss_rate() > 0.0 && s.miss_rate() <= 1.0);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write);
        // Force eviction of line 0's set with two more lines.
        c.access(4 * 64, AccessKind::Read);
        match c.access(8 * 64, AccessKind::Read) {
            AccessResult::Miss { writeback, .. } => assert_eq!(writeback, Some(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn probe_predicts_access_without_perturbing() {
        let mut c = small();
        c.access(0x1000, AccessKind::Read);
        assert_eq!(c.probe(0x1000), Some(0));
        assert_eq!(c.probe(0x2000), None);
        let before = *c.stats();
        let _ = c.probe(0x1000);
        assert_eq!(*c.stats(), before, "probe must not count");
        // Probe does not refresh LRU: fill the set, then check the
        // victim prediction matches what access actually evicts.
        c.access(4 * 64, AccessKind::Read); // second line of set 0
        let set = c.set_of(0x1000);
        let predicted = c.victim_way(set);
        match c.access(0x1000 + 16 * 4 * 64, AccessKind::Read) {
            AccessResult::Miss { way, .. } => assert_eq!(way, predicted),
            AccessResult::Hit { .. } => panic!("expected a miss"),
        }
    }

    #[test]
    fn victim_way_matches_lru_choice() {
        let mut c = small();
        let a = 0u64;
        let b = 4 * 64;
        c.access(a, AccessKind::Read); // way 0
        c.access(b, AccessKind::Read); // way 1
        c.access(a, AccessKind::Read); // a is MRU, b is LRU
        assert_eq!(c.victim_way(c.set_of(a)), 1);
        match c.access(8 * 64, AccessKind::Read) {
            AccessResult::Miss { way, .. } => assert_eq!(way, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A dense directory in the shape of the textbook model: every
    /// line's tag, valid and dirty bits and LRU stamp, allocated up
    /// front. [`Cache`] must match it access for access.
    struct DenseReference {
        tags: Vec<u64>,
        stamps: Vec<u64>,
        valid: Vec<bool>,
        dirty: Vec<bool>,
        sets: u64,
        ways: usize,
        tick: u64,
        stats: CacheStats,
    }

    impl DenseReference {
        fn new(capacity_bytes: u64, ways: u32) -> Self {
            let lines = (capacity_bytes / 64) as usize;
            Self {
                tags: vec![0; lines],
                stamps: vec![0; lines],
                valid: vec![false; lines],
                dirty: vec![false; lines],
                sets: lines as u64 / ways as u64,
                ways: ways as usize,
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn probe(&self, addr: u64) -> Option<u32> {
            let (set, tag) = ((addr >> 6) % self.sets, (addr >> 6) / self.sets);
            let base = set as usize * self.ways;
            (0..self.ways)
                .find(|&w| self.valid[base + w] && self.tags[base + w] == tag)
                .map(|w| w as u32)
        }

        fn victim_way(&self, set: u64) -> u32 {
            let base = set as usize * self.ways;
            let key = |w: usize| self.valid[base + w].then_some(self.stamps[base + w]);
            (0..self.ways).min_by_key(|&w| key(w)).unwrap() as u32
        }

        fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
            self.tick += 1;
            let write = kind == AccessKind::Write;
            if write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
            let (set, tag) = ((addr >> 6) % self.sets, (addr >> 6) / self.sets);
            let base = set as usize * self.ways;
            if let Some(w) = self.probe(addr) {
                let i = base + w as usize;
                self.stamps[i] = self.tick;
                self.dirty[i] |= write;
                self.stats.hits += 1;
                return AccessResult::Hit { way: w };
            }
            self.stats.misses += 1;
            let w = self.victim_way(set);
            let i = base + w as usize;
            let writeback = (self.valid[i] && self.dirty[i]).then(|| {
                self.stats.writebacks += 1;
                (self.tags[i] * self.sets + set) << 6
            });
            self.tags[i] = tag;
            self.stamps[i] = self.tick;
            self.valid[i] = true;
            self.dirty[i] = write;
            AccessResult::Miss { way: w, writeback }
        }
    }

    /// Drives `Cache` and the dense reference with `n` mixed reads and
    /// writes: mostly a hot range of `hot_sets` sets with `tags` tags
    /// each (so sets fill, hit and evict), one access in eight to a
    /// uniformly random line anywhere. Before every access both are
    /// also asked about a random, usually untouched, set.
    fn check_against_dense(mut cache: Cache, hot_sets: u64, tags: u64, n: u64) {
        let ways = cache.ways();
        let mut dense = DenseReference::new(cache.sets() * ways as u64 * 64, ways);
        let sets = cache.sets();
        let mut x = 0x2015_u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 16
        };
        let (mut hits, mut writebacks) = (0, 0);
        for i in 0..n {
            let r = next();
            let line = if r % 8 == 0 {
                next() % (1 << 40)
            } else {
                (r / 8 % tags) * sets + next() % hot_sets
            };
            let addr = (line << 6) | (next() % 64);
            let kind = if next() % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let other = next() % sets;
            assert_eq!(
                cache.victim_way(other),
                dense.victim_way(other),
                "access {i}"
            );
            assert_eq!(
                cache.probe(other << 6),
                dense.probe(other << 6),
                "access {i}"
            );
            assert_eq!(cache.probe(addr), dense.probe(addr), "access {i}");
            let set = cache.set_of(addr);
            assert_eq!(cache.victim_way(set), dense.victim_way(set), "access {i}");
            let got = cache.access(addr, kind);
            assert_eq!(got, dense.access(addr, kind), "access {i}");
            hits += got.is_hit() as u64;
            writebacks += matches!(
                got,
                AccessResult::Miss {
                    writeback: Some(_),
                    ..
                }
            ) as u64;
        }
        assert_eq!(*cache.stats(), dense.stats);
        assert!(
            hits > n / 10 && writebacks > n / 50,
            "{hits} hits, {writebacks} writebacks"
        );
    }

    #[test]
    fn matches_a_dense_directory_at_a_toy_geometry() {
        // 64 sets x 2 ways.
        check_against_dense(Cache::new(64 * 2 * 64, 2, 64), 64, 5, 20_000);
    }

    #[test]
    fn matches_a_dense_directory_at_the_paper_llc_geometry() {
        // 128 MB, 16 ways: 128 Ki sets.
        check_against_dense(Cache::new(128 << 20, 16, 64), 512, 24, 24_000);
    }

    #[test]
    fn a_recycled_directory_matches_a_dense_one() {
        let paper_llc = || Cache::new(128 << 20, 16, 64);
        let dirty = |c: &mut Cache| {
            for i in 0..50_000u64 {
                c.access((i * 0x9e37_79b9 % (1 << 34)) << 6, AccessKind::Write);
            }
        };
        let spare_held = || {
            let spare = SPARE.take();
            let held = spare.is_some();
            SPARE.set(spare);
            held
        };
        // Outside `recycling` a dropped cache leaves no spare.
        dirty(&mut paper_llc());
        assert!(!spare_held());
        // Inside, it does; small caches neither take nor replace it.
        recycling(|| dirty(&mut paper_llc()));
        assert!(spare_held());
        recycling(|| drop(Cache::new(1 << 20, 4, 64)));
        assert!(spare_held());
        // The next paper-geometry cache takes it over and must behave
        // as a fresh one.
        let reused = recycling(paper_llc);
        assert!(!spare_held(), "the spare was not taken");
        assert!(reused.slots.iter().all(|&s| s == 0) && reused.blocks.is_empty());
        check_against_dense(reused, 512, 24, 24_000);
        recycling(|| drop(paper_llc()));
        release_spare();
        assert!(!spare_held());
    }

    /// Blocks the arena holds.
    fn resident_blocks(c: &Cache) -> usize {
        c.blocks.len() / (2 * c.ways as usize)
    }

    #[test]
    fn resident_blocks_follow_touched_sets() {
        let mut c = Cache::new(128 << 20, 16, 64);
        let stride = c.sets() * 64;
        // Untouched sets: nothing to find, way 0 to fill, no block.
        for set in (0..c.sets()).step_by(97) {
            assert_eq!(c.probe(set * 64), None);
            assert_eq!(c.victim_way(set), 0);
        }
        assert_eq!(resident_blocks(&c), 0);
        // 300 distinct sets, each touched by 20 lines (so they evict).
        let touched: Vec<u64> = (0..300).map(|i| i * 433 % c.sets()).collect();
        for &set in &touched {
            for tag in 0..20 {
                c.access(tag * stride + set * 64, AccessKind::Write);
            }
        }
        assert_eq!(resident_blocks(&c), touched.len());
        for set in (0..c.sets()).filter(|s| !touched.contains(s)).step_by(89) {
            assert_eq!(c.probe(set * 64), None);
            assert_eq!(c.victim_way(set), 0);
        }
        assert_eq!(resident_blocks(&c), touched.len());
        assert!(c.slots.iter().filter(|&&s| s != 0).count() == touched.len());
    }

    #[test]
    fn clone_keeps_the_reservation_and_evolves_identically() {
        let mut original = Cache::new(64 * 16 * 64, 16, 64);
        let reserved = original.blocks.capacity();
        assert!(reserved >= 2 * 64 * 16);
        // Touch 8 of the 64 sets, so the clone is taken mid-fill.
        for i in 0..500u64 {
            original.access(
                (i * 0x9e37 % 4096) * 64 * 64 + i % 8 * 64,
                AccessKind::Write,
            );
        }
        assert_eq!(resident_blocks(&original), 8);
        let mut copy = original.clone();
        assert_eq!(
            copy.blocks.capacity(),
            reserved,
            "clone dropped the reservation"
        );
        let arena = copy.blocks.as_ptr();
        for i in 0..20_000u64 {
            let addr = i * 0x51_7cc1 % (1 << 22);
            let kind = if i % 5 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            assert_eq!(copy.probe(addr), original.probe(addr));
            assert_eq!(
                copy.access(addr, kind),
                original.access(addr, kind),
                "access {i}"
            );
        }
        assert_eq!(copy.stats(), original.stats());
        assert_eq!(resident_blocks(&copy), 64, "every set touched");
        assert_eq!(copy.blocks.as_ptr(), arena, "the clone's arena moved");
    }

    #[test]
    fn large_llc_dimensions() {
        // The paper's 128 MB LLC: 2 Mi lines, 16-way, 128 Ki sets.
        let c = Cache::new(128 << 20, 16, 64);
        assert_eq!(c.sets(), 131_072);
    }

    #[test]
    #[should_panic]
    fn bad_line_size_rejected() {
        let _ = Cache::new(1024, 2, 48);
    }
}
