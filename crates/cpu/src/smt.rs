//! Simultaneous multithreading — the study §7 proposes.
//!
//! *"By scheduling across multiple threads, an SMT processor may obtain
//! even larger benefits out of increased IQ sizes. Unlike other
//! prescheduling schemes, the dynamic inter-chain scheduling of our
//! segmented IQ should allow chains from independent threads to exploit
//! thread-level parallelism effectively."*
//!
//! [`SmtPipeline`] runs several hardware threads over one shared
//! instruction queue, function-unit pool, cache hierarchy and branch
//! predictor. Each thread has its own front end, rename map, reorder
//! buffer and load/store queue (threads do not share memory; feed each
//! thread through [`chainiq_workload::AddressSpace`] to keep address
//! spaces disjoint). Fetch rotates round-robin over unstalled threads;
//! dispatch and commit bandwidth are shared; instruction tags are
//! allocated globally, so the queue's oldest-first policies arbitrate
//! across threads by age — chains from independent threads interleave
//! freely, which is exactly the §7 hypothesis under test in
//! `cargo run -p chainiq-bench --bin smt`.

use std::collections::BTreeMap;

use chainiq_core::{
    DispatchInfo, FuPool, InstTag, IssueQueue, OperandPick, SrcOperand, TagMap, Wheel,
};
use chainiq_isa::{Cycle, Inst, OpClass};
use chainiq_mem::Hierarchy;
use chainiq_predict::{HitMissPredictor, HybridBranchPredictor, LeftRightPredictor, Operand};

use crate::config::SimConfig;
use crate::frontend::Frontend;
use crate::lsq::{Lsq, LsqEvent};
use crate::pipeline::EVENT_WHEEL_BUCKETS;
use crate::rename::RenameState;
use crate::rob::{Rob, RobEntry, RobState};
use crate::stats::SimStats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Complete(InstTag),
    LoadMiss(InstTag),
    LoadFill(InstTag),
}

/// Per-thread machine state.
#[derive(Debug)]
struct ThreadCtx<W> {
    workload: W,
    frontend: Frontend,
    rename: RenameState,
    rob: Rob,
    lsq: Lsq,
    redirect_waiting: Option<InstTag>,
}

/// An SMT processor: `N` threads sharing one instruction queue.
///
/// See the [module docs](self) for the sharing model, and
/// [`SmtPipeline::run`] for the stop condition.
#[derive(Debug)]
pub struct SmtPipeline<Q, W> {
    config: SimConfig,
    iq: Q,
    threads: Vec<ThreadCtx<W>>,
    now: Cycle,
    mem: Hierarchy,
    fus: FuPool,
    bp: HybridBranchPredictor,
    hmp: HitMissPredictor,
    lrp: LeftRightPredictor,
    events: Wheel<Event>,
    /// Scratch for draining `events` without a per-cycle allocation.
    events_scratch: Vec<Event>,
    completion_time: TagMap<Cycle>,
    thread_of: TagMap<u8>,
    store_value: BTreeMap<InstTag, SrcOperand>,
    waiting_stores: BTreeMap<InstTag, Vec<InstTag>>,
    next_tag: u64,
    fetch_rr: usize,
    dispatch_rr: usize,
    /// Scratch for each thread's per-cycle LSQ event report.
    lsq_events: Vec<LsqEvent>,
    /// Scratch for the entries a thread committed this cycle.
    committed: Vec<RobEntry>,
    stats: SimStats,
}

impl<Q: IssueQueue, W: Iterator<Item = Inst>> SmtPipeline<Q, W> {
    /// Builds an SMT machine over `iq` with one context per workload.
    /// The shared ROB capacity (`config.rob_size`) is partitioned
    /// statically and equally among the threads.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or has more than 255 entries.
    #[must_use]
    pub fn new(config: SimConfig, iq: Q, workloads: Vec<W>) -> Self {
        assert!(!workloads.is_empty(), "at least one thread");
        assert!(workloads.len() <= 255, "thread id fits a u8");
        let per_thread_rob = (config.rob_size / workloads.len()).max(1);
        let threads = workloads
            .into_iter()
            .map(|workload| ThreadCtx {
                workload,
                frontend: Frontend::new(),
                rename: RenameState::new(),
                rob: Rob::new(per_thread_rob),
                lsq: Lsq::new(config.read_ports, config.write_ports),
                redirect_waiting: None,
            })
            .collect();
        SmtPipeline {
            iq,
            threads,
            now: 0,
            mem: Hierarchy::new(config.mem),
            fus: FuPool::new(config.fus_per_kind, config.issue_width),
            bp: HybridBranchPredictor::new(config.branch),
            hmp: HitMissPredictor::default(),
            lrp: LeftRightPredictor::default(),
            events: Wheel::new(EVENT_WHEEL_BUCKETS),
            events_scratch: Vec::new(),
            completion_time: TagMap::new(),
            thread_of: TagMap::new(),
            store_value: BTreeMap::new(),
            waiting_stores: BTreeMap::new(),
            next_tag: 0,
            fetch_rr: 0,
            dispatch_rr: 0,
            lsq_events: Vec::new(),
            committed: Vec::new(),
            stats: SimStats::default(),
            config,
        }
    }

    /// Number of hardware threads.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The shared queue under test.
    #[must_use]
    pub fn iq(&self) -> &Q {
        &self.iq
    }

    /// Instructions committed by thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn committed_of(&self, t: usize) -> u64 {
        self.threads[t].rob.committed()
    }

    fn total_committed(&self) -> u64 {
        self.threads.iter().map(|t| t.rob.committed()).sum()
    }

    /// Runs until the *total* committed count reaches `max_insts` (or the
    /// no-progress guard trips) and returns aggregate statistics; use
    /// [`SmtPipeline::committed_of`] for the per-thread split.
    pub fn run(&mut self, max_insts: u64) -> SimStats {
        let mut last_progress = (self.now, self.total_committed());
        while self.total_committed() < max_insts && self.now < self.config.max_cycles {
            self.step();
            let c = self.total_committed();
            if c != last_progress.1 {
                last_progress = (self.now, c);
            } else if self.now - last_progress.0 > 500_000 {
                self.stats.hung = true;
                break;
            }
        }
        self.snapshot_stats()
    }

    /// Aggregate statistics so far.
    #[must_use]
    pub fn snapshot_stats(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.cycles = self.now;
        s.committed = self.total_committed();
        s.fetched = self.threads.iter().map(|t| t.frontend.stats().fetched).sum();
        s.branch_lookups = self.bp.stats().lookups;
        s.branch_correct = self.bp.stats().correct;
        s.hmp = *self.hmp.stats();
        s.lrp = self.lrp.stats();
        s.mem = *self.mem.stats();
        s.iq = self.iq.stats();
        s.loads_issued = self.threads.iter().map(|t| t.lsq.stats().loads_issued).sum();
        s.stores_written = self.threads.iter().map(|t| t.lsq.stats().stores_written).sum();
        s.store_forwards = self.threads.iter().map(|t| t.lsq.stats().forwards).sum();
        s.mispredict_stall_cycles =
            self.threads.iter().map(|t| t.frontend.stats().mispredict_stall_cycles).sum();
        s
    }

    fn schedule(&mut self, at: Cycle, ev: Event) {
        self.events.schedule(at.max(self.now + 1), ev);
    }

    fn announce(&mut self, tag: InstTag, ready_at: Cycle) {
        self.iq.announce_ready(tag, ready_at);
        if let Some(t) = self.thread_of.get(tag.0) {
            self.threads[t as usize].rename.announce(tag, ready_at);
        }
        self.completion_time.insert(tag.0, ready_at);
        if !self.waiting_stores.is_empty() {
            if let Some(stores) = self.waiting_stores.remove(&tag) {
                for st in stores {
                    self.schedule(ready_at, Event::Complete(st));
                }
            }
        }
    }

    /// When the data value of store `tag` is (or will be) available:
    /// `Ok(cycle)` when known, `Err(producer)` when the producing
    /// instruction has not announced its result yet (the store must park
    /// in `waiting_stores` keyed by that producer).
    fn store_value_ready_at(&self, tag: InstTag) -> Result<Cycle, InstTag> {
        let Some(data) = self.store_value.get(&tag) else {
            return Ok(self.now + 1);
        };
        let Some(producer) = data.producer else {
            return Ok(self.now + 1);
        };
        if let Some(t) = self.completion_time.get(producer.0) {
            return Ok(t);
        }
        if let Some(t) = data.known_ready_at {
            return Ok(t);
        }
        let thread = self.thread_of.get(producer.0).unwrap_or(0) as usize;
        match self.threads[thread].rob.get(producer) {
            None => Ok(self.now + 1),
            Some(e) if e.state == RobState::Completed => Ok(self.now + 1),
            _ => Err(producer),
        }
    }

    fn complete(&mut self, tag: InstTag) {
        let Some(thread) = self.thread_of.get(tag.0) else {
            return;
        };
        let ctx = &mut self.threads[thread as usize];
        ctx.rob.mark(tag, RobState::Completed);
        self.iq.on_writeback(tag);
        if let Some((pc, [Some(a), Some(b)])) =
            self.threads[thread as usize].rob.get(tag).map(|e| (e.inst.pc, e.src_producers))
        {
            let ta = self.completion_time.get(a.0).unwrap_or(0);
            let tb = self.completion_time.get(b.0).unwrap_or(0);
            let later = if tb > ta { Operand::Right } else { Operand::Left };
            self.lrp.update(pc, later);
        }
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        self.fus.next_cycle();

        // 1. Timing events.
        let mut evs = std::mem::take(&mut self.events_scratch);
        self.events.drain_into(now, &mut evs);
        for ev in evs.drain(..) {
            match ev {
                Event::LoadMiss(tag) => self.iq.on_load_miss(tag),
                Event::LoadFill(tag) => self.iq.on_load_fill(tag),
                Event::Complete(tag) => self.complete(tag),
            }
        }
        self.events_scratch = evs;

        // 2. Queue tick.
        let execution_idle = self.events.is_empty();
        self.iq.tick(now, execution_idle);

        // 3. Memory scheduling, per thread.
        for t in 0..self.threads.len() {
            let mut events = std::mem::take(&mut self.lsq_events);
            self.threads[t].lsq.cycle(now, &mut self.mem, &mut events);
            for ev in events.drain(..) {
                match ev {
                    LsqEvent::LoadResolved {
                        tag,
                        pc,
                        predicted_hit,
                        completes_at,
                        l1_resolved_at,
                        was_l1_hit,
                        ..
                    } => {
                        self.announce(tag, completes_at);
                        self.hmp.update(pc, was_l1_hit);
                        if self.config.use_hmp {
                            self.hmp.record_outcome(predicted_hit, was_l1_hit);
                        }
                        if !was_l1_hit {
                            self.schedule(l1_resolved_at, Event::LoadMiss(tag));
                            self.schedule(completes_at, Event::LoadFill(tag));
                        }
                        self.schedule(completes_at, Event::Complete(tag));
                    }
                    LsqEvent::StoreWritten { .. } => {}
                }
            }
            self.lsq_events = events;
        }

        // 4. Issue from the shared queue.
        for sel in self.iq.select_issue(now, &mut self.fus) {
            let thread = self.thread_of.get(sel.tag.0).unwrap_or(0) as usize;
            self.threads[thread].rob.mark(sel.tag, RobState::Issued);
            match sel.op {
                OpClass::Load | OpClass::Store => {
                    self.threads[thread].lsq.ea_computed(sel.tag, now + 1);
                    if sel.op == OpClass::Store {
                        match self.store_value_ready_at(sel.tag) {
                            Ok(at) => self.schedule(at.max(now + 1), Event::Complete(sel.tag)),
                            Err(producer) => {
                                self.waiting_stores.entry(producer).or_default().push(sel.tag);
                            }
                        }
                    }
                }
                OpClass::Branch => {
                    self.schedule(now + 1, Event::Complete(sel.tag));
                    if self.threads[thread].redirect_waiting == Some(sel.tag) {
                        self.threads[thread].redirect_waiting = None;
                        self.threads[thread].frontend.resume(now + 1);
                    }
                }
                op => {
                    let ready = now + u64::from(op.exec_latency());
                    self.announce(sel.tag, ready);
                    self.schedule(ready, Event::Complete(sel.tag));
                }
            }
        }

        // 5. Dispatch: shared bandwidth, round-robin over threads.
        let n = self.threads.len();
        let mut dispatched = 0;
        let mut exhausted = vec![false; n];
        'outer: while dispatched < self.config.dispatch_width && !exhausted.iter().all(|&e| e) {
            let t = self.dispatch_rr % n;
            self.dispatch_rr += 1;
            if exhausted[t] {
                continue;
            }
            if !self.threads[t].rob.has_space() {
                exhausted[t] = true;
                continue;
            }
            let Some(fetched) = self.threads[t].frontend.take_dispatchable(now) else {
                exhausted[t] = true;
                continue;
            };
            let inst = fetched.inst;
            let tag = InstTag(self.next_tag);
            let mut srcs: Vec<_> =
                inst.srcs().iter().map(|&r| self.threads[t].rename.src(r)).collect();
            let mut store_data: Option<SrcOperand> = None;
            if inst.is_store() && srcs.len() == 2 {
                store_data = srcs.pop();
            }
            let predicted_hit = if inst.is_load() && self.config.use_hmp {
                self.hmp.predict_hit(inst.pc)
            } else {
                false
            };
            let lrp_pick = if self.config.use_lrp && srcs.len() == 2 {
                Some(match self.lrp.predict(inst.pc) {
                    Operand::Left => OperandPick::Left,
                    Operand::Right => OperandPick::Right,
                })
            } else {
                None
            };
            let info = DispatchInfo {
                tag,
                op: inst.op,
                dest: inst.dest,
                srcs: [srcs.first().copied(), srcs.get(1).copied()],
                predicted_hit,
                lrp_pick,
                thread: t as u8,
            };
            if self.iq.dispatch(now, info).is_err() {
                self.threads[t].frontend.undo_take(fetched);
                break 'outer; // shared queue stalled: nobody dispatches
            }
            self.next_tag += 1;
            dispatched += 1;
            self.stats.dispatched += 1;
            self.thread_of.insert(tag.0, t as u8);
            if let Some(mem) = inst.mem {
                self.threads[t].lsq.push(tag, inst.pc, mem.addr, inst.is_store(), predicted_hit);
            }
            if let Some(data) = store_data {
                self.store_value.insert(tag, data);
            }
            if let Some(dest) = inst.dest {
                self.threads[t].rename.define(dest, tag);
            }
            if fetched.mispredicted {
                self.threads[t].redirect_waiting = Some(tag);
            }
            self.threads[t].rob.push(RobEntry {
                tag,
                inst,
                state: RobState::Dispatched,
                src_producers: [
                    srcs.first().and_then(|s| s.producer),
                    srcs.get(1).and_then(|s| s.producer),
                ],
            });
        }

        // 6. Commit: shared bandwidth, split round-robin.
        let share = self.config.commit_width.div_ceil(n);
        let mut committed = std::mem::take(&mut self.committed);
        for t in 0..n {
            self.threads[t].rob.commit(share, &mut committed);
            for e in committed.drain(..) {
                self.threads[t].rename.retire(e.inst.dest, e.tag);
                self.threads[t].lsq.on_commit(e.tag);
                self.completion_time.remove(e.tag.0);
                if e.inst.is_store() {
                    self.store_value.remove(&e.tag);
                }
                self.thread_of.remove(e.tag.0);
            }
        }
        self.committed = committed;

        // 7. Fetch: one thread per cycle, round-robin.
        let t = self.fetch_rr % n;
        self.fetch_rr += 1;
        let ctx = &mut self.threads[t];
        ctx.frontend.fetch(now, &self.config, &mut ctx.workload, &mut self.bp, &mut self.mem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_baseline::IdealIq;
    use chainiq_core::{SegmentedIq, SegmentedIqConfig};
    use chainiq_workload::{AddressSpace, Bench, SyntheticWorkload};

    // Not a multiple of any predictor-table size, so thread contexts do not
    // alias exactly onto the same PHT/BTB/HMP slots.
    const STRIDE: u64 = (1 << 40) | 0x94_530;

    fn threads(n: usize, bench: Bench) -> Vec<AddressSpace<SyntheticWorkload>> {
        (0..n as u64)
            .map(|t| {
                AddressSpace::new(
                    SyntheticWorkload::from_profile(bench.profile(), 100 + t),
                    t * STRIDE,
                    t * STRIDE,
                )
            })
            .collect()
    }

    #[test]
    fn two_threads_both_make_progress() {
        let cfg = SimConfig::default().rob_for_iq(128);
        let mut smt = SmtPipeline::new(cfg, IdealIq::new(128), threads(2, Bench::Vortex));
        let s = smt.run(6_000);
        assert!(!s.hung);
        assert!(s.committed >= 6_000);
        for t in 0..2 {
            assert!(smt.committed_of(t) > 1_000, "thread {t} starved: {}", smt.committed_of(t));
        }
    }

    #[test]
    fn smt_on_segmented_queue_interleaves_chains() {
        let mut cfg = SimConfig::default().rob_for_iq(256).with_extra_dispatch_cycle();
        cfg.use_hmp = true;
        let qc = SegmentedIqConfig::paper(256, Some(128));
        let mut smt = SmtPipeline::new(cfg, SegmentedIq::new(qc), threads(2, Bench::Swim));
        let s = smt.run(6_000);
        assert!(!s.hung);
        let seg = smt.iq().full_stats();
        assert!(seg.chains.allocations > 0);
        // Both threads' loads created chains; neither thread starved.
        assert!(smt.committed_of(0) > 1_000);
        assert!(smt.committed_of(1) > 1_000);
    }

    #[test]
    fn smt_throughput_exceeds_single_thread_on_latency_bound_code() {
        // gcc spends most of its cycles stalled behind mispredictions;
        // a second context fills those holes. (Bandwidth-bound pairs
        // like equake+equake gain nothing — the 8 B/cycle memory bus is
        // already saturated by one thread — which is itself a correct
        // and useful result.)
        let cfg = SimConfig::default().rob_for_iq(256);
        let mut single = SmtPipeline::new(cfg, IdealIq::new(256), threads(1, Bench::Gcc));
        let s1 = single.run(5_000);
        let mut dual = SmtPipeline::new(cfg, IdealIq::new(256), threads(2, Bench::Gcc));
        let s2 = dual.run(5_000);
        assert!(
            s2.ipc() > 1.3 * s1.ipc(),
            "a second gcc context should fill mispredict holes: {} vs {}",
            s2.ipc(),
            s1.ipc()
        );
    }

    #[test]
    fn one_thread_smt_matches_basic_shape() {
        let cfg = SimConfig::default().rob_for_iq(64);
        let mut smt = SmtPipeline::new(cfg, IdealIq::new(64), threads(1, Bench::Gcc));
        let s = smt.run(3_000);
        assert!(!s.hung);
        assert!(s.ipc() > 0.1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let w: Vec<AddressSpace<SyntheticWorkload>> = vec![];
        let _ = SmtPipeline::new(SimConfig::default(), IdealIq::new(64), w);
    }
}
