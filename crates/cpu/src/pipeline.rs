//! The cycle loop tying front end, queue, LSQ, memory and commit
//! together.

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
use crate::rename::RenameState;
use crate::rob::{Rob, RobEntry, RobState};
use crate::stats::SimStats;

/// Event-wheel size: most completions land within the function-unit and
/// L1/L2 latency window; longer waits (main memory) ride the wheel's
/// far-future path at one compare per revolution.
pub(crate) const EVENT_WHEEL_BUCKETS: usize = 512;

/// Deferred timing events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Result written back: ROB entry completes, chains headed by it are
    /// released, LRP trains.
    Complete(InstTag),
    /// A chain-head load's miss became visible (§3.4 suspend).
    LoadMiss(InstTag),
    /// A missing load's fill arrived (§3.4 resume).
    LoadFill(InstTag),
}

/// The simulated processor: Table 1's core around a pluggable instruction
/// queue.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Pipeline<Q, W> {
    config: SimConfig,
    iq: Q,
    workload: W,
    now: Cycle,
    frontend: Frontend,
    rob: Rob,
    lsq: Lsq,
    mem: Hierarchy,
    fus: FuPool,
    bp: HybridBranchPredictor,
    hmp: HitMissPredictor,
    lrp: LeftRightPredictor,
    rename: RenameState,
    /// Deferred completions/misses/fills, bucketed by delivery cycle.
    events: Wheel<Event>,
    /// Scratch for draining `events` without a per-cycle allocation.
    events_scratch: Vec<Event>,
    /// Scratch for the LSQ's per-cycle event report.
    lsq_events: Vec<LsqEvent>,
    /// Scratch for the entries committed this cycle.
    committed: Vec<RobEntry>,
    completion_time: TagMap<Cycle>,
    next_tag: u64,
    in_flight: usize,
    /// Branch the front end is stalled behind, once dispatched.
    redirect_waiting: Option<InstTag>,
    /// Store-data dependences: the IQ schedules only a store's
    /// address-generation (sim-outorder style), so the data operand is
    /// tracked here and gates the store's completion.
    store_value: BTreeMap<InstTag, SrcOperand>,
    /// Stores whose data producer has not yet announced, keyed by
    /// producer.
    waiting_stores: BTreeMap<InstTag, Vec<InstTag>>,
    stats: SimStats,
}

impl<Q: IssueQueue, W: Iterator<Item = Inst>> Pipeline<Q, W> {
    /// Builds a processor around `iq`, fed by `workload`.
    #[must_use]
    pub fn new(config: SimConfig, iq: Q, workload: W) -> Self {
        Pipeline {
            iq,
            workload,
            now: 0,
            frontend: Frontend::new(),
            rob: Rob::new(config.rob_size),
            lsq: Lsq::new(config.read_ports, config.write_ports),
            mem: Hierarchy::new(config.mem),
            fus: FuPool::new(config.fus_per_kind, config.issue_width),
            bp: HybridBranchPredictor::new(config.branch),
            hmp: HitMissPredictor::default(),
            lrp: LeftRightPredictor::default(),
            rename: RenameState::new(),
            events: Wheel::new(EVENT_WHEEL_BUCKETS),
            events_scratch: Vec::new(),
            lsq_events: Vec::new(),
            committed: Vec::new(),
            completion_time: TagMap::new(),
            next_tag: 0,
            in_flight: 0,
            redirect_waiting: None,
            store_value: BTreeMap::new(),
            waiting_stores: BTreeMap::new(),
            stats: SimStats::default(),
            config,
        }
    }

    /// The queue under test.
    #[must_use]
    pub fn iq(&self) -> &Q {
        &self.iq
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The hit/miss predictor (diagnostics).
    #[doc(hidden)]
    #[must_use]
    pub fn hmp(&self) -> &HitMissPredictor {
        &self.hmp
    }

    /// Debug description of the oldest in-flight instruction: its tag,
    /// pipeline state and textual location. For diagnostics only.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_head(&self) -> Option<String> {
        self.rob.head().map(|e| {
            format!(
                "tag={} op={} state={:?} parked_store={} events={} in_flight={}",
                e.tag.0,
                e.inst.op,
                e.state,
                self.waiting_stores.values().flatten().any(|t| *t == e.tag),
                self.events.len(),
                self.in_flight,
            )
        })
    }

    /// Runs until `max_insts` instructions commit (or the cycle guard
    /// trips) and returns the statistics.
    pub fn run(&mut self, max_insts: u64) -> SimStats {
        let mut last_progress = (self.now, self.rob.committed());
        while self.rob.committed() < max_insts && self.now < self.config.max_cycles {
            self.step();
            if self.rob.committed() != last_progress.1 {
                last_progress = (self.now, self.rob.committed());
            } else if self.now - last_progress.0 > 500_000 {
                self.stats.hung = true;
                break;
            }
        }
        self.snapshot_stats()
    }

    /// A snapshot of the statistics so far.
    #[must_use]
    pub fn snapshot_stats(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.cycles = self.now;
        s.committed = self.rob.committed();
        s.fetched = self.frontend.stats().fetched;
        s.mispredict_stall_cycles = self.frontend.stats().mispredict_stall_cycles;
        s.branch_lookups = self.bp.stats().lookups;
        s.branch_correct = self.bp.stats().correct;
        s.hmp = *self.hmp.stats();
        s.lrp = self.lrp.stats();
        s.mem = *self.mem.stats();
        s.iq = self.iq.stats();
        s.rob_mean_occupancy = self.rob.mean_occupancy();
        let lsq = self.lsq.stats();
        s.loads_issued = lsq.loads_issued;
        s.stores_written = lsq.stores_written;
        s.store_forwards = lsq.forwards;
        s
    }

    fn schedule(&mut self, at: Cycle, ev: Event) {
        self.events.schedule(at.max(self.now + 1), ev);
    }

    /// A producer's completion time became known: broadcast it and wake
    /// any stores waiting on that value.
    fn announce(&mut self, tag: InstTag, ready_at: Cycle) {
        self.iq.announce_ready(tag, ready_at);
        self.rename.announce(tag, ready_at);
        self.completion_time.insert(tag.0, ready_at);
        if !self.waiting_stores.is_empty() {
            if let Some(stores) = self.waiting_stores.remove(&tag) {
                for st in stores {
                    self.schedule(ready_at, Event::Complete(st));
                }
            }
        }
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        self.fus.next_cycle();

        // 1. Deliver timing events due this cycle.
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

        // 2. Advance the queue. "Execution idle" for the §4.5 deadlock
        // detector means no pending timing event can change queue state
        // from outside: every in-flight completion, fill and resume is an
        // entry in `events`, so an empty event queue guarantees that only
        // the queue itself can make progress.
        let execution_idle = self.events.is_empty();
        self.iq.tick(now, execution_idle);
        self.rob.sample_occupancy();

        // 3. Memory scheduling.
        let mut lsq_events = std::mem::take(&mut self.lsq_events);
        self.lsq.cycle(now, &mut self.mem, &mut lsq_events);
        for ev in lsq_events.drain(..) {
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
                        // The fill (chain resume) must be delivered before
                        // the same-cycle writeback releases the chain.
                        self.schedule(completes_at, Event::LoadFill(tag));
                    }
                    self.schedule(completes_at, Event::Complete(tag));
                }
                LsqEvent::StoreWritten { .. } => {}
            }
        }
        self.lsq_events = lsq_events;

        // 4. Issue.
        for sel in self.iq.select_issue(now, &mut self.fus) {
            self.rob.mark(sel.tag, RobState::Issued);
            self.in_flight += 1;
            match sel.op {
                OpClass::Load | OpClass::Store => {
                    // EA available next cycle; the LSQ takes over. Loads
                    // complete when their access resolves; stores complete
                    // once both the EA is computed and the data value is
                    // produced.
                    self.lsq.ea_computed(sel.tag, now + 1);
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
                    if self.redirect_waiting == Some(sel.tag) {
                        self.redirect_waiting = None;
                        self.frontend.resume(now + 1);
                    }
                }
                op => {
                    let ready = now + u64::from(op.exec_latency());
                    self.announce(sel.tag, ready);
                    self.schedule(ready, Event::Complete(sel.tag));
                }
            }
        }

        // 5. Dispatch (rename).
        for _ in 0..self.config.dispatch_width {
            if !self.rob.has_space() {
                break;
            }
            let Some(fetched) = self.frontend.take_dispatchable(now) else {
                break;
            };
            let inst = fetched.inst;
            let tag = InstTag(self.next_tag);
            let regs = inst.srcs();
            let src0 = regs.first().map(|&r| self.rename.src(r));
            let mut src1 = regs.get(1).map(|&r| self.rename.src(r));
            // A store's IQ entry is its address generation (base operand
            // only); the data operand is tracked by the pipeline and
            // gates completion, not address issue.
            let mut store_data: Option<SrcOperand> = None;
            if inst.is_store() && src1.is_some() {
                store_data = src1.take();
            }
            let predicted_hit = if inst.is_load() && self.config.use_hmp {
                self.hmp.predict_hit(inst.pc)
            } else {
                false
            };
            let lrp_pick = if self.config.use_lrp && src1.is_some() {
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
                srcs: [src0, src1],
                predicted_hit,
                lrp_pick,
                thread: 0,
            };
            if self.iq.dispatch(now, info).is_err() {
                self.frontend.undo_take(fetched);
                break;
            }
            self.next_tag += 1;
            self.stats.dispatched += 1;
            if let Some(mem) = inst.mem {
                self.lsq.push(tag, inst.pc, mem.addr, inst.is_store(), predicted_hit);
            }
            if let Some(data) = store_data {
                self.store_value.insert(tag, data);
            }
            if let Some(dest) = inst.dest {
                self.rename.define(dest, tag);
            }
            if fetched.mispredicted {
                self.redirect_waiting = Some(tag);
            }
            self.rob.push(RobEntry {
                tag,
                inst,
                state: RobState::Dispatched,
                src_producers: [src0.and_then(|s| s.producer), src1.and_then(|s| s.producer)],
            });
        }

        // 6. Commit.
        let mut committed = std::mem::take(&mut self.committed);
        self.rob.commit(self.config.commit_width, &mut committed);
        for e in committed.drain(..) {
            self.rename.retire(e.inst.dest, e.tag);
            self.lsq.on_commit(e.tag);
            self.completion_time.remove(e.tag.0);
            // Only stores ever park a data operand here.
            if e.inst.is_store() {
                self.store_value.remove(&e.tag);
            }
        }
        self.committed = committed;

        // 7. Fetch.
        self.frontend.fetch(now, &self.config, &mut self.workload, &mut self.bp, &mut self.mem);
    }

    /// When the data value of store `tag` is (or will be) available:
    /// `Ok(cycle)` when known, `Err(producer)` when the producing
    /// instruction has not announced its result yet (the store must park
    /// in `waiting_stores` keyed by that producer).
    fn store_value_ready_at(&self, tag: InstTag) -> Result<Cycle, InstTag> {
        let Some(data) = self.store_value.get(&tag) else {
            return Ok(self.now + 1); // no data dependence recorded
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
        // Producer already committed (and pruned) => the value exists.
        match self.rob.get(producer) {
            None => Ok(self.now + 1),
            Some(e) if e.state == RobState::Completed => Ok(self.now + 1),
            _ => Err(producer),
        }
    }

    /// Writeback of `tag`: completes the ROB entry, releases chains, and
    /// trains the left/right predictor with the operand that actually
    /// arrived later.
    fn complete(&mut self, tag: InstTag) {
        self.rob.mark(tag, RobState::Completed);
        self.in_flight = self.in_flight.saturating_sub(1);
        self.iq.on_writeback(tag);
        // LRP training: which of the two producers finished later?
        if let Some((pc, [Some(a), Some(b)])) =
            self.rob.get(tag).map(|e| (e.inst.pc, e.src_producers))
        {
            let ta = self.completion_time.get(a.0).unwrap_or(0);
            let tb = self.completion_time.get(b.0).unwrap_or(0);
            let later = if tb > ta { Operand::Right } else { Operand::Left };
            self.lrp.update(pc, later);
        }
    }
}

impl chainiq_ckpt::Pack for Event {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        match self {
            Event::Complete(tag) => {
                w.put_u8(0);
                tag.pack(w);
            }
            Event::LoadMiss(tag) => {
                w.put_u8(1);
                tag.pack(w);
            }
            Event::LoadFill(tag) => {
                w.put_u8(2);
                tag.pack(w);
            }
        }
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        match r.take_u8("pipeline event tag")? {
            0 => Ok(Event::Complete(Pack::unpack(r)?)),
            1 => Ok(Event::LoadMiss(Pack::unpack(r)?)),
            2 => Ok(Event::LoadFill(Pack::unpack(r)?)),
            _ => {
                Err(chainiq_ckpt::CkptError::Corrupt { context: "pipeline event tag".to_string() })
            }
        }
    }
}

impl<Q, W> chainiq_ckpt::Snapshot for Pipeline<Q, W>
where
    Q: IssueQueue + chainiq_ckpt::Snapshot,
    W: Iterator<Item = Inst> + chainiq_ckpt::Snapshot,
{
    const COMPONENT: &'static str = "cpu.pipeline";
    const VERSION: u16 = 2;

    /// The machine configuration is not serialized (restore targets a
    /// pipeline already built from it); a fingerprint of its debug
    /// rendering guards against restoring into a differently configured
    /// machine. The queue, workload, memory hierarchy and predictors are
    /// nested sections so each carries its own version and fingerprint.
    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        chainiq_ckpt::fingerprint(format!("{:?}", self.config).as_bytes()).pack(w);
        self.now.pack(w);
        chainiq_ckpt::save_section(w, &self.iq);
        chainiq_ckpt::save_section(w, &self.workload);
        chainiq_ckpt::save_section(w, &self.mem);
        chainiq_ckpt::save_section(w, &self.bp);
        chainiq_ckpt::save_section(w, &self.hmp);
        chainiq_ckpt::save_section(w, &self.lrp);
        self.frontend.pack(w);
        self.rob.pack(w);
        self.lsq.pack(w);
        self.fus.pack(w);
        self.rename.pack(w);
        // Canonical forms: the wheel dumps in drain order, the tag map in
        // ascending-key order, so the bytes are independent of how the
        // live structures were built.
        self.events.entries_sorted().pack(w);
        self.completion_time.to_sorted_vec().pack(w);
        self.next_tag.pack(w);
        self.in_flight.pack(w);
        self.redirect_waiting.pack(w);
        self.store_value.pack(w);
        self.waiting_stores.pack(w);
        self.stats.pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let fp: u64 = Pack::unpack(r)?;
        if fp != chainiq_ckpt::fingerprint(format!("{:?}", self.config).as_bytes()) {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: "machine configuration differs from the running pipeline".to_string(),
            });
        }
        let now: Cycle = Pack::unpack(r)?;
        chainiq_ckpt::restore_section(r, &mut self.iq)?;
        chainiq_ckpt::restore_section(r, &mut self.workload)?;
        chainiq_ckpt::restore_section(r, &mut self.mem)?;
        chainiq_ckpt::restore_section(r, &mut self.bp)?;
        chainiq_ckpt::restore_section(r, &mut self.hmp)?;
        chainiq_ckpt::restore_section(r, &mut self.lrp)?;
        let frontend: Frontend = Pack::unpack(r)?;
        let rob: Rob = Pack::unpack(r)?;
        let lsq: Lsq = Pack::unpack(r)?;
        let fus: FuPool = Pack::unpack(r)?;
        let rename: RenameState = Pack::unpack(r)?;
        let events: Vec<(Cycle, Event)> = Pack::unpack(r)?;
        let completion_time: Vec<(u64, Cycle)> = Pack::unpack(r)?;
        let next_tag: u64 = Pack::unpack(r)?;
        let in_flight: usize = Pack::unpack(r)?;
        let redirect_waiting: Option<InstTag> = Pack::unpack(r)?;
        let store_value: BTreeMap<InstTag, SrcOperand> = Pack::unpack(r)?;
        let waiting_stores: BTreeMap<InstTag, Vec<InstTag>> = Pack::unpack(r)?;
        let stats: SimStats = Pack::unpack(r)?;
        self.now = now;
        self.frontend = frontend;
        self.rob = rob;
        self.lsq = lsq;
        self.fus = fus;
        self.rename = rename;
        // Pending events are all strictly in the future (delivery empties
        // a cycle's bucket before the snapshot boundary), so rebasing the
        // wheel at `now` and replaying in drain order reproduces the live
        // wheel's delivery sequence exactly.
        self.events.reset(now);
        for (c, ev) in events {
            self.events.schedule(c, ev);
        }
        self.events_scratch.clear();
        self.lsq_events.clear();
        self.committed.clear();
        self.completion_time.clear();
        for (k, v) in completion_time {
            self.completion_time.insert(k, v);
        }
        self.next_tag = next_tag;
        self.in_flight = in_flight;
        self.redirect_waiting = redirect_waiting;
        self.store_value = store_value;
        self.waiting_stores = waiting_stores;
        self.stats = stats;
        Ok(())
    }
}
