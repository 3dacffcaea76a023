//! The L2-miss stream of one L1/L2 pass, recorded once and replayed
//! against any number of LLCs.
//!
//! L1 and L2 never see an LLC result, and L2 writebacks never reach
//! the LLC, so what the LLC receives from the core is fixed by the
//! trace alone: the address and kind of each L2 miss, and the
//! LLC-free ("base") cycles that pass between consecutive misses. The
//! LLC's clock at a miss is that base clock plus the LLC and memory
//! latencies of the misses before it, which a replay adds back (see
//! [`crate::hierarchy::Hierarchy::replay`]).
//!
//! # Encoding
//!
//! The stream is a sequence of `u32` words. Bit 0 of an entry's first
//! word is the kind (1 = write), bits 1..8 a 7-bit delta and bits 8..32
//! a 24-bit payload.
//!
//! * **Short entry** (4 B): delta < 127 and a word-aligned address below
//!   2^27 (128 MiB); the payload is the address / 8.
//! * **Long entry** (8 B): the delta field is 127 and the payload is the
//!   delta (< 2^24 − 1); the next word is the address / 8 of a
//!   word-aligned address below 2^35.
//! * **Escape entry** (20 B): the delta field is 127 and the payload is
//!   all ones; the next four words are the full address and the full
//!   delta (low word first).
//!
//! So the stream is lossless for any `u64` address and delta. The
//! PARSEC profiles (word-aligned addresses, working sets ≤ 100 MB)
//! never escape: at 2M accesses 98 % of their misses are short and the
//! rest long, 4.07 B per L2 miss over all twelve and 6.6 B at most
//! (swaptions, whose rare misses lie far apart).

use crate::cache::AccessKind;
use rtm_cost::technology::{SystemConfig, UpperLevelCache};

/// Delta field value marking a long or escape entry.
const LONG: u32 = 0x7F;
/// Payload bits of an entry's first word.
const PAYLOAD_BITS: u32 = 24;
/// Payload value marking an escape entry.
const ESCAPE: u32 = (1 << PAYLOAD_BITS) - 1;

/// One L2 miss as the LLC receives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Miss {
    /// Byte address.
    pub addr: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Base cycles since the previous miss issued (since cycle 0 for
    /// the first miss).
    pub delta: u64,
}

/// The part of the platform an L1/L2 pass depends on; a stream only
/// replays on a hierarchy with the same front end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FrontConfig {
    pub(crate) cores: u32,
    pub(crate) line_bytes: u32,
    pub(crate) l1: UpperLevelCache,
    pub(crate) l2: UpperLevelCache,
}

impl FrontConfig {
    pub(crate) fn of(config: &SystemConfig) -> Self {
        Self {
            cores: config.cores,
            line_bytes: config.line_bytes,
            l1: config.l1,
            l2: config.l2,
        }
    }
}

/// Counters of an L1/L2 pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FrontCounts {
    pub(crate) accesses: u64,
    pub(crate) instructions: u64,
    pub(crate) l1_misses: u64,
    pub(crate) l2_misses: u64,
}

/// The L2-miss stream and L1/L2 counters of `n` accesses, produced by
/// [`crate::hierarchy::Hierarchy::filter`] and consumed by
/// [`crate::hierarchy::Hierarchy::replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredStream {
    words: Vec<u32>,
    pub(crate) counts: FrontCounts,
    pub(crate) front: FrontConfig,
    /// LLC-free cycles of the whole pass.
    pub(crate) base_cycles: u64,
}

impl FilteredStream {
    pub(crate) fn new(front: FrontConfig) -> Self {
        Self {
            words: Vec::new(),
            counts: FrontCounts::default(),
            front,
            base_cycles: 0,
        }
    }

    /// Appends a miss `delta` base cycles after the previous one.
    pub(crate) fn push(&mut self, addr: u64, kind: AccessKind, delta: u64) {
        let write = u32::from(kind == AccessKind::Write);
        // The address in 8-byte words, if it is word-aligned.
        let words = addr.is_multiple_of(8).then_some(addr / 8);
        match words {
            Some(w) if w < 1 << PAYLOAD_BITS && delta < u64::from(LONG) => {
                self.words
                    .push((w as u32) << 8 | (delta as u32) << 1 | write);
            }
            Some(w) if w <= u64::from(u32::MAX) && delta < u64::from(ESCAPE) => {
                self.words
                    .extend([(delta as u32) << 8 | LONG << 1 | write, w as u32]);
            }
            _ => self.words.extend([
                ESCAPE << 8 | LONG << 1 | write,
                addr as u32,
                (addr >> 32) as u32,
                delta as u32,
                (delta >> 32) as u32,
            ]),
        }
    }

    /// Seals the stream: records the pass's counters and base cycles
    /// and releases the growth slack, so the stream holds exactly its
    /// words.
    pub(crate) fn finish(mut self, counts: FrontCounts, base_cycles: u64) -> Self {
        self.words.shrink_to_fit();
        self.counts = counts;
        self.base_cycles = base_cycles;
        self
    }

    /// The misses in issue order.
    pub fn misses(&self) -> impl Iterator<Item = L2Miss> + '_ {
        let mut rest = &self.words[..];
        std::iter::from_fn(move || {
            let (&w, tail) = rest.split_first()?;
            let kind = if w & 1 == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let (payload, delta) = (w >> 8, w >> 1 & LONG);
            let (miss, tail) = if delta != LONG {
                let addr = u64::from(payload) * 8;
                let delta = u64::from(delta);
                (L2Miss { addr, kind, delta }, tail)
            } else if payload != ESCAPE {
                let addr = u64::from(tail[0]) * 8;
                let delta = u64::from(payload);
                (L2Miss { addr, kind, delta }, &tail[1..])
            } else {
                let wide = |i: usize| u64::from(tail[i]) | u64::from(tail[i + 1]) << 32;
                let (addr, delta) = (wide(0), wide(2));
                (L2Miss { addr, kind, delta }, &tail[4..])
            };
            rest = tail;
            Some(miss)
        })
    }

    /// Accesses filtered.
    pub fn accesses(&self) -> u64 {
        self.counts.accesses
    }

    /// L2 misses: the number of entries in [`Self::misses`].
    pub fn l2_misses(&self) -> u64 {
        self.counts.l2_misses
    }

    /// Accesses that hit in L1.
    pub(crate) fn l1_hits(&self) -> u64 {
        self.counts.accesses - self.counts.l1_misses
    }

    /// Accesses that missed L1 and hit L2.
    pub(crate) fn l2_hits(&self) -> u64 {
        self.counts.l1_misses - self.counts.l2_misses
    }

    /// Heap bytes the stream holds: 4 per short entry, 8 per long
    /// entry and 20 per escape entry.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_cost::technology::CacheTech;

    fn stream(misses: &[L2Miss]) -> FilteredStream {
        let mut s = FilteredStream::new(FrontConfig::of(&SystemConfig::paper(CacheTech::Sram)));
        for m in misses {
            s.push(m.addr, m.kind, m.delta);
        }
        s.finish(FrontCounts::default(), 0)
    }

    fn miss(addr: u64, write: bool, delta: u64) -> L2Miss {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        L2Miss { addr, kind, delta }
    }

    #[test]
    fn entries_take_the_narrowest_form() {
        let short = [
            miss(0, false, 0),
            miss(((1 << 24) - 1) * 8, true, u64::from(LONG) - 1),
            miss(100 << 20, false, 17),
        ];
        let long = [
            miss(1 << 27, true, 0),
            miss(8, false, u64::from(LONG)),
            miss(u64::from(u32::MAX) * 8, true, u64::from(ESCAPE) - 1),
        ];
        for (misses, bytes) in [(&short, 4), (&long, 8)] {
            let s = stream(misses);
            assert_eq!(s.heap_bytes(), bytes * misses.len());
            assert_eq!(s.misses().collect::<Vec<_>>(), misses);
        }
    }

    #[test]
    fn out_of_range_fields_escape_losslessly() {
        let misses = [
            miss(7, false, 3),
            miss((u64::from(u32::MAX) + 1) * 8, false, 0),
            miss(16, true, u64::from(ESCAPE)),
            miss(u64::MAX, true, u64::MAX),
            miss(24, false, 5),
        ];
        let s = stream(&misses);
        assert_eq!(s.heap_bytes(), 4 * 20 + 4);
        assert_eq!(s.misses().collect::<Vec<_>>(), misses);
    }
}
