//! Outside-in probes: wrappers that time the calls crossing one layer
//! boundary without touching the layer's code.
//!
//! A simulation makes millions of queue and workload calls, so the
//! probes never record a span per call. Each boundary accumulates busy
//! time and a call count for the run ([`Acc`]); the runner emits one
//! span per run from those totals.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use chainiq::ckpt::{CkptError, Reader, Snapshot, Writer};
use chainiq::core::{IqStats, IssuedInst};
use chainiq::{Cycle, DispatchInfo, DispatchStall, FuPool, Inst, InstTag, IssueQueue};

/// Busy time and call count accumulated at one boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Acc {
    /// Summed wall time spent inside the boundary.
    pub busy: Duration,
    /// Calls that crossed it.
    pub calls: u64,
}

impl Acc {
    /// Charges one call that started at `since`.
    #[inline]
    pub fn add(&mut self, since: Instant) {
        self.busy += since.elapsed();
        self.calls += 1;
    }

    /// Adds another accumulator's totals.
    pub fn merge(&mut self, other: Acc) {
        self.busy += other.busy;
        self.calls += other.calls;
    }

    /// Busy time in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.busy.as_secs_f64()
    }
}

/// Per-method totals of one instruction queue.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IqTimes {
    /// `tick`.
    pub tick: Acc,
    /// `dispatch` (accepted and stalled attempts alike).
    pub dispatch: Acc,
    /// `select_issue`.
    pub select_issue: Acc,
    /// `announce_ready`.
    pub announce_ready: Acc,
    /// `on_load_miss`, `on_load_fill` and `on_writeback`.
    pub notify: Acc,
    /// Dispatch attempts the queue refused.
    pub dispatch_stalls: u64,
}

impl IqTimes {
    /// Busy time over every timed method.
    #[must_use]
    pub fn busy(&self) -> Duration {
        self.tick.busy
            + self.dispatch.busy
            + self.select_issue.busy
            + self.announce_ready.busy
            + self.notify.busy
    }

    /// Calls over every timed method.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.tick.calls
            + self.dispatch.calls
            + self.select_issue.calls
            + self.announce_ready.calls
            + self.notify.calls
    }

    /// Adds another run's totals.
    pub fn merge(&mut self, other: &IqTimes) {
        self.tick.merge(other.tick);
        self.dispatch.merge(other.dispatch);
        self.select_issue.merge(other.select_issue);
        self.announce_ready.merge(other.announce_ready);
        self.notify.merge(other.notify);
        self.dispatch_stalls += other.dispatch_stalls;
    }
}

/// An [`IssueQueue`] that forwards every call to `inner` and times the
/// scheduling methods. Its checkpoint section is `inner`'s, byte for
/// byte, so images saved by a probed machine restore into a plain one
/// and the other way round.
#[derive(Debug)]
pub struct IqProbe<Q> {
    inner: Q,
    times: IqTimes,
}

impl<Q> IqProbe<Q> {
    /// Wraps `inner` with zeroed totals.
    pub fn new(inner: Q) -> Self {
        IqProbe { inner, times: IqTimes::default() }
    }

    /// The totals so far.
    #[must_use]
    pub fn times(&self) -> IqTimes {
        self.times
    }

    /// The wrapped queue.
    #[must_use]
    pub fn inner(&self) -> &Q {
        &self.inner
    }
}

impl<Q: IssueQueue> IssueQueue for IqProbe<Q> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }

    fn tick(&mut self, now: Cycle, execution_idle: bool) {
        let t = Instant::now();
        self.inner.tick(now, execution_idle);
        self.times.tick.add(t);
    }

    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        let t = Instant::now();
        let r = self.inner.dispatch(now, info);
        self.times.dispatch.add(t);
        if r.is_err() {
            self.times.dispatch_stalls += 1;
        }
        r
    }

    fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
        let t = Instant::now();
        let r = self.inner.select_issue(now, fus);
        self.times.select_issue.add(t);
        r
    }

    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        let t = Instant::now();
        self.inner.announce_ready(producer, ready_at);
        self.times.announce_ready.add(t);
    }

    fn on_load_miss(&mut self, tag: InstTag) {
        let t = Instant::now();
        self.inner.on_load_miss(tag);
        self.times.notify.add(t);
    }

    fn on_load_fill(&mut self, tag: InstTag) {
        let t = Instant::now();
        self.inner.on_load_fill(tag);
        self.times.notify.add(t);
    }

    fn on_writeback(&mut self, tag: InstTag) {
        let t = Instant::now();
        self.inner.on_writeback(tag);
        self.times.notify.add(t);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn stats(&self) -> IqStats {
        self.inner.stats()
    }
}

impl<Q: Snapshot> Snapshot for IqProbe<Q> {
    const COMPONENT: &'static str = Q::COMPONENT;
    const VERSION: u16 = Q::VERSION;

    fn save(&self, w: &mut Writer) {
        self.inner.save(w);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        self.inner.restore(r)
    }
}

/// An instruction stream that times every `next` of `inner`. The totals
/// live in a shared cell because the pipeline owns the stream and
/// offers no accessor for it.
#[derive(Debug)]
pub struct WorkloadProbe<W> {
    inner: W,
    acc: Rc<Cell<Acc>>,
}

impl<W> WorkloadProbe<W> {
    /// Wraps `inner`, charging its calls to `acc`.
    pub fn new(inner: W, acc: Rc<Cell<Acc>>) -> Self {
        WorkloadProbe { inner, acc }
    }
}

impl<W: Iterator<Item = Inst>> Iterator for WorkloadProbe<W> {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        let t = Instant::now();
        let inst = self.inner.next();
        let mut acc = self.acc.get();
        acc.add(t);
        self.acc.set(acc);
        inst
    }
}

impl<W: Snapshot> Snapshot for WorkloadProbe<W> {
    const COMPONENT: &'static str = W::COMPONENT;
    const VERSION: u16 = W::VERSION;

    fn save(&self, w: &mut Writer) {
        self.inner.save(w);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        self.inner.restore(r)
    }
}
