//! Timing wrappers built only on the library's public traits: an
//! `Iterator` around a generator, a `RequestSource` around any source
//! (a trace iterator or the front door), and an `LlcModel` around a
//! `RacetrackLlc` for mounting with `Hierarchy::with_llc`.

use std::cell::RefCell;
use std::rc::Rc;

use rtm_cost::energy::LlcActivity;
use rtm_cost::technology::LlcDesign;
use rtm_mem::cache::AccessKind;
use rtm_mem::llc::{LlcModel, LlcResponse, LlcStats, RacetrackLlc, ScaleStats};
use rtm_serve::{Completion, RequestSource, SourcePoll};
use rtm_trace::MemAccess;
use rtm_util::units::Seconds;

use crate::ledger::Busy;
use crate::replay::ShiftReq;

/// Times every `next` of the wrapped iterator.
pub struct TimedIter<I> {
    pub inner: I,
    pub busy: Busy,
}

impl<I> TimedIter<I> {
    pub fn new(inner: I) -> Self {
        Self {
            inner,
            busy: Busy::default(),
        }
    }
}

impl<I: Iterator> Iterator for TimedIter<I> {
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        self.busy.time(|| self.inner.next())
    }
}

/// What the event loop handed the source: every admitted request in
/// admission-id order and every completion. Enough to rebuild the exact
/// sequence of LLC calls the loop made (see `replay::llc_of_dispatches`).
#[derive(Debug, Default)]
pub struct DispatchLog {
    pub admitted: Vec<MemAccess>,
    pub completions: Vec<Completion>,
}

/// Times each callback of the wrapped source and logs admissions and
/// completions outside the timed windows.
pub struct LoggedSource<S> {
    pub inner: S,
    pub poll: Busy,
    pub admitted: Busy,
    pub completed: Busy,
    pub log: DispatchLog,
    ready: Option<MemAccess>,
}

impl<S> LoggedSource<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            poll: Busy::default(),
            admitted: Busy::default(),
            completed: Busy::default(),
            log: DispatchLog::default(),
            ready: None,
        }
    }
}

impl<S: RequestSource> RequestSource for LoggedSource<S> {
    fn poll(&mut self, now: u64) -> SourcePoll {
        let p = self.poll.time(|| self.inner.poll(now));
        if let SourcePoll::Ready(a) = p {
            self.ready = Some(a);
        }
        p
    }

    fn admitted(&mut self, id: u64, now: u64) {
        self.admitted.time(|| self.inner.admitted(id, now));
        debug_assert_eq!(id, self.log.admitted.len() as u64);
        let a = self.ready.take().expect("admission follows a ready poll");
        self.log.admitted.push(a);
    }

    fn completed(&mut self, completion: &Completion) {
        self.completed.time(|| self.inner.completed(completion));
        self.log.completions.push(*completion);
    }
}

/// What a [`TimedLlc`] saw: busy time of the wrapped `access` calls and
/// the shift each one needed, for the isolated controller replay.
#[derive(Debug, Default)]
pub struct LlcTap {
    pub busy: Busy,
    pub shifts: Vec<ShiftReq>,
}

/// An `LlcModel` that times each access of the wrapped racetrack LLC.
/// Everything else is forwarded unchanged, so the hierarchy's result
/// is the one the unwrapped LLC gives.
pub struct TimedLlc {
    inner: RacetrackLlc,
    tap: Rc<RefCell<LlcTap>>,
}

impl TimedLlc {
    pub fn new(inner: RacetrackLlc) -> (Self, Rc<RefCell<LlcTap>>) {
        let tap = Rc::new(RefCell::new(LlcTap::default()));
        (
            Self {
                inner,
                tap: Rc::clone(&tap),
            },
            tap,
        )
    }
}

impl LlcModel for TimedLlc {
    fn access(&mut self, addr: u64, kind: AccessKind, now_cycles: u64) -> LlcResponse {
        let group = self.inner.group_of(addr);
        let before = self.inner.head_position(group);
        let mut tap = self.tap.borrow_mut();
        let resp = tap.busy.time(|| self.inner.access(addr, kind, now_cycles));
        let distance = u32::from(before.abs_diff(self.inner.head_position(group)));
        if distance > 0 {
            tap.shifts.push(ShiftReq {
                distance,
                now: now_cycles,
                bank: (group % self.inner.banks() as usize) as u32,
                fused: false,
            });
        }
        resp
    }

    fn stats(&self) -> LlcStats {
        self.inner.stats()
    }

    fn design(&self) -> &LlcDesign {
        self.inner.design()
    }

    fn activity(&self, duration: Seconds) -> LlcActivity {
        self.inner.activity(duration)
    }

    fn scale_stats(&self) -> ScaleStats {
        self.inner.scale_stats()
    }
}
