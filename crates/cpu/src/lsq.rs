//! The load/store queue.
//!
//! As in §5 (following sim-outorder), memory instructions split: the
//! effective-address calculation is scheduled by the instruction queue as
//! an ordinary integer op, and the memory access lives here. A load
//! accesses the cache once its address is known and it is known not to
//! conflict with any preceding store; an exact-address match forwards
//! from the store instead. Stores write to the cache after commit.

use std::collections::VecDeque;

use chainiq_core::InstTag;
use chainiq_isa::Cycle;
use chainiq_mem::{AccessKind, Hierarchy, RejectReason, ServicedBy};

/// What happened to a memory operation this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LsqEvent {
    /// A load's access resolved.
    LoadResolved {
        tag: InstTag,
        pc: u64,
        /// HMP verdict the load dispatched under.
        predicted_hit: bool,
        /// When the loaded value is available to consumers.
        completes_at: Cycle,
        /// When the L1 lookup resolved (miss-detection time for chain
        /// suspension).
        l1_resolved_at: Cycle,
        /// Whether it was a true L1 hit (delayed hits count as misses).
        was_l1_hit: bool,
        /// Whether the value was forwarded from an in-flight store.
        forwarded: bool,
    },
    /// A committed store wrote to the cache.
    StoreWritten { tag: InstTag },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Address not yet computed.
    WaitingEa,
    /// Address known at `Cycle`; access not yet performed.
    Ready(Cycle),
    /// Load resolved / store waiting to commit+write.
    Done,
}

#[derive(Debug, Clone)]
struct LsqEntry {
    tag: InstTag,
    pc: u64,
    addr: u64,
    is_store: bool,
    state: State,
    committed: bool,
    /// HMP verdict this load dispatched under (stats pairing).
    predicted_hit: bool,
}

/// Statistics the LSQ reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LsqStats {
    pub loads_issued: u64,
    pub stores_written: u64,
    pub forwards: u64,
    pub disambiguation_stalls: u64,
    pub mshr_retries: u64,
}

/// A memory op the per-cycle passes act on: a load with a computed,
/// unresolved address, or a committed store not yet written. A copy of
/// its queue entry's fields, so the passes never search `entries`.
#[derive(Debug, Clone, Copy)]
struct ActiveOp {
    tag: InstTag,
    pc: u64,
    addr: u64,
    /// Cycle the address is known (`Cycle::MAX` for a committed store
    /// whose address is not computed yet).
    ea_at: Cycle,
    predicted_hit: bool,
    /// After an MSHR rejection, the first cycle the access can be
    /// accepted ([`Hierarchy::retry_at`]); earlier cycles count the
    /// rejection without presenting the access. Zero when never rejected.
    retry_at: Cycle,
}

impl ActiveOp {
    fn of(e: &LsqEntry) -> Self {
        let ea_at = match e.state {
            State::Ready(at) => at,
            State::WaitingEa | State::Done => Cycle::MAX,
        };
        ActiveOp {
            tag: e.tag,
            pc: e.pc,
            addr: e.addr,
            ea_at,
            predicted_hit: e.predicted_hit,
            retry_at: 0,
        }
    }
}

/// Test-only faults in the MSHR parking window, for the differential
/// suite's fault-injection cases.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkFault {
    /// Park one cycle past [`Hierarchy::retry_at`]: the first cycle the
    /// access could succeed is skipped, which is inexact.
    OneCycleLonger,
    /// Retry one cycle before it: a wasted real attempt that is rejected
    /// again, which stays exact.
    OneCycleShorter,
}

/// The load/store queue. Unbounded (the ROB bounds in-flight memory ops;
/// the paper gives no LSQ size).
///
/// `entries` is the queue itself and the only serialized state. Each
/// cycle's work runs on indexes derived from it (rebuilt on unpack), so
/// it costs in proportion to the ops that can act, not to occupancy
/// (DESIGN.md §9):
///
/// * `loads` and `writes` hold the only ops a cycle can act on, in tag
///   order, so neither pass walks the queue;
/// * a load is blocked iff it is younger than the oldest unresolved
///   store, the front of `unresolved_stores`;
/// * an unblocked load forwards iff some store older than it has its
///   address — every older store is resolved then — which is one binary
///   search of `store_index`;
/// * an access the hierarchy rejected for want of an MSHR is not
///   presented again before [`Hierarchy::retry_at`]; each cycle it would
///   have been is counted in both `mshr_retries` and the hierarchy's
///   `mshr_rejections`, exactly as a real rejection would be.
#[derive(Debug, Clone)]
pub(crate) struct Lsq {
    entries: VecDeque<LsqEntry>,
    read_ports: usize,
    write_ports: usize,
    stats: LsqStats,
    /// Loads whose address is computed and whose access has not
    /// resolved, in tag order.
    loads: Vec<ActiveOp>,
    /// Committed stores not yet written, in tag order.
    writes: Vec<ActiveOp>,
    /// `(tag, cycle its address resolves)` of stores, oldest first, with
    /// `Cycle::MAX` until the address is computed. Resolved stores leave
    /// from the front only, so the front is the oldest unresolved store;
    /// resolved stores behind it stay until they reach the front.
    unresolved_stores: VecDeque<(u64, Cycle)>,
    /// `(addr, tag)` of every queued store, sorted, so the oldest store
    /// to an address is the first entry with that address.
    store_index: Vec<(u64, u64)>,
    #[cfg(test)]
    fault: Option<ParkFault>,
    /// Accesses counted as rejected without being presented.
    #[cfg(test)]
    skipped: u64,
}

impl Lsq {
    pub(crate) fn new(read_ports: usize, write_ports: usize) -> Self {
        Lsq::from_entries(VecDeque::new(), read_ports, write_ports, LsqStats::default())
    }

    /// A queue over `entries` with its indexes derived from them.
    fn from_entries(
        entries: VecDeque<LsqEntry>,
        read_ports: usize,
        write_ports: usize,
        stats: LsqStats,
    ) -> Self {
        let loads = entries
            .iter()
            .filter(|e| !e.is_store && matches!(e.state, State::Ready(_)))
            .map(ActiveOp::of)
            .collect();
        let writes =
            entries.iter().filter(|e| e.is_store && e.committed).map(ActiveOp::of).collect();
        let unresolved_stores = entries
            .iter()
            .filter(|e| e.is_store && e.state != State::Done)
            .map(|e| (e.tag.0, ActiveOp::of(e).ea_at))
            .collect();
        let mut store_index: Vec<(u64, u64)> =
            entries.iter().filter(|e| e.is_store).map(|e| (e.addr, e.tag.0)).collect();
        store_index.sort_unstable();
        Lsq {
            entries,
            read_ports,
            write_ports,
            stats,
            loads,
            writes,
            unresolved_stores,
            store_index,
            #[cfg(test)]
            fault: None,
            #[cfg(test)]
            skipped: 0,
        }
    }

    /// Position of `tag` in the queue. Dispatch pushes in tag order and
    /// removals keep relative order, so the queue is tag-sorted.
    #[inline]
    fn find(&self, tag: InstTag) -> Option<usize> {
        self.entries.binary_search_by_key(&tag.0, |e| e.tag.0).ok()
    }

    pub(crate) fn stats(&self) -> LsqStats {
        self.stats
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[cfg(test)]
    pub(crate) fn inject(&mut self, fault: ParkFault) {
        self.fault = Some(fault);
    }

    /// Inserts a memory op at dispatch (program order). `predicted_hit`
    /// is the HMP verdict the load dispatched under.
    pub(crate) fn push(
        &mut self,
        tag: InstTag,
        pc: u64,
        addr: u64,
        is_store: bool,
        predicted_hit: bool,
    ) {
        debug_assert!(self.entries.back().is_none_or(|e| e.tag < tag), "pushed out of tag order");
        self.entries.push_back(LsqEntry {
            tag,
            pc,
            addr,
            is_store,
            state: State::WaitingEa,
            committed: false,
            predicted_hit,
        });
        if is_store {
            self.unresolved_stores.push_back((tag.0, Cycle::MAX));
            let key = (addr, tag.0);
            let at = self.store_index.partition_point(|&k| k < key);
            self.store_index.insert(at, key);
        }
    }

    /// The IQ issued the op's EA calculation; the address is known at
    /// `ea_at`.
    pub(crate) fn ea_computed(&mut self, tag: InstTag, ea_at: Cycle) {
        let Some(pos) = self.find(tag) else { return };
        let e = &mut self.entries[pos];
        if e.state != State::WaitingEa {
            return;
        }
        e.state = State::Ready(ea_at);
        let op = ActiveOp::of(e);
        if !e.is_store {
            let at = self.loads.partition_point(|l| l.tag < tag);
            self.loads.insert(at, op);
            return;
        }
        if let Ok(i) = self.unresolved_stores.binary_search_by_key(&tag.0, |&(t, _)| t) {
            self.unresolved_stores[i].1 = ea_at;
        }
        if e.committed {
            if let Ok(i) = self.writes.binary_search_by_key(&tag, |w| w.tag) {
                self.writes[i].ea_at = ea_at;
            }
        }
    }

    /// The instruction committed: loads leave; stores become eligible to
    /// write (they leave once written).
    pub(crate) fn on_commit(&mut self, tag: InstTag) {
        let Some(pos) = self.find(tag) else { return };
        let e = &mut self.entries[pos];
        if e.is_store {
            if !e.committed {
                e.committed = true;
                let op = ActiveOp::of(e);
                let at = self.writes.partition_point(|w| w.tag < tag);
                self.writes.insert(at, op);
            }
            return;
        }
        if matches!(e.state, State::Ready(_)) {
            if let Ok(i) = self.loads.binary_search_by_key(&tag, |l| l.tag) {
                self.loads.remove(i);
            }
        }
        self.entries.remove(pos);
    }

    /// Whether any op is still waiting to access memory.
    #[cfg(test)]
    pub(crate) fn has_pending_access(&self) -> bool {
        self.entries.iter().any(|e| !matches!(e.state, State::Done) || (e.is_store && e.committed))
    }

    /// The first cycle a re-presented access rejected at `now` can be
    /// accepted.
    fn retry_at(
        &self,
        mem: &Hierarchy,
        now: Cycle,
        kind: AccessKind,
        reason: RejectReason,
    ) -> Cycle {
        let at = mem.retry_at(now, kind, reason);
        #[cfg(test)]
        let at = match self.fault {
            Some(ParkFault::OneCycleLonger) => at + 1,
            Some(ParkFault::OneCycleShorter) => (at - 1).max(now + 1),
            None => at,
        };
        at
    }

    /// One cycle of memory scheduling. Events are appended to `events`
    /// (a caller-owned scratch buffer, so steady-state cycles allocate
    /// nothing).
    pub(crate) fn cycle(&mut self, now: Cycle, mem: &mut Hierarchy, events: &mut Vec<LsqEvent>) {
        while self.unresolved_stores.front().is_some_and(|&(_, at)| at <= now) {
            self.unresolved_stores.pop_front();
        }
        if !self.writes.is_empty() {
            self.write_stores(now, mem, events);
        }
        if !self.loads.is_empty() {
            self.issue_loads(now, mem, events);
        }
    }

    /// Committed stores write to the cache in order, up to the write
    /// ports; a rejected store does not hold back younger ones.
    fn write_stores(&mut self, now: Cycle, mem: &mut Hierarchy, events: &mut Vec<LsqEvent>) {
        let mut writes = std::mem::take(&mut self.writes);
        let mut written = 0usize;
        let mut skipped = 0u64;
        writes.retain_mut(|w| {
            if written >= self.write_ports || w.ea_at > now {
                return true;
            }
            if w.retry_at > now {
                skipped += 1;
                return true;
            }
            match mem.access(now, w.addr, AccessKind::Write) {
                Ok(_) => {
                    written += 1;
                    events.push(LsqEvent::StoreWritten { tag: w.tag });
                    self.remove_written(w.tag, w.addr);
                    false
                }
                Err(reason) => {
                    self.stats.mshr_retries += 1;
                    w.retry_at = self.retry_at(mem, now, AccessKind::Write, reason);
                    true
                }
            }
        });
        self.writes = writes;
        self.note_skipped(mem, skipped);
        self.stats.stores_written += written as u64;
    }

    /// Accounts `n` parked accesses: each counts as the rejection its
    /// presentation would have been.
    fn note_skipped(&mut self, mem: &mut Hierarchy, n: u64) {
        self.stats.mshr_retries += n;
        mem.count_rejections(n);
        #[cfg(test)]
        {
            self.skipped += n;
        }
    }

    /// A written store leaves the queue and the address index. It is
    /// resolved, so `unresolved_stores` drops it when it reaches the
    /// front.
    fn remove_written(&mut self, tag: InstTag, addr: u64) {
        if let Some(pos) = self.find(tag) {
            self.entries.remove(pos);
        }
        if let Ok(i) = self.store_index.binary_search(&(addr, tag.0)) {
            self.store_index.remove(i);
        }
    }

    /// Loads access once disambiguated against all older stores, oldest
    /// first, up to the read ports. A load is blocked while any older
    /// store's address is unresolved; once none is, an exact-address
    /// match with an older store forwards instead of accessing the cache.
    fn issue_loads(&mut self, now: Cycle, mem: &mut Hierarchy, events: &mut Vec<LsqEvent>) {
        let oldest_unresolved = self.unresolved_stores.front().map_or(u64::MAX, |&(t, _)| t);
        let l1_latency = mem.config().l1d.latency;
        let mut loads = std::mem::take(&mut self.loads);
        let mut reads = 0usize;
        let mut skipped = 0u64;
        loads.retain_mut(|l| {
            if l.ea_at > now || reads >= self.read_ports {
                return true;
            }
            // A parked load was unblocked and unforwarded when rejected,
            // and stays so: its older stores only resolve or leave.
            if l.retry_at > now {
                skipped += 1;
                return true;
            }
            if l.tag.0 > oldest_unresolved {
                self.stats.disambiguation_stalls += 1;
                return true;
            }
            let key = (l.addr, 0);
            let i = self.store_index.partition_point(|&k| k < key);
            let forwarded =
                self.store_index.get(i).is_some_and(|&(a, t)| a == l.addr && t < l.tag.0);
            let event = if forwarded {
                // Store-to-load forwarding at L1-hit latency.
                self.stats.forwards += 1;
                LsqEvent::LoadResolved {
                    tag: l.tag,
                    pc: l.pc,
                    predicted_hit: l.predicted_hit,
                    completes_at: now + l1_latency,
                    l1_resolved_at: now + l1_latency,
                    was_l1_hit: true,
                    forwarded: true,
                }
            } else {
                match mem.access(now, l.addr, AccessKind::Read) {
                    Ok(out) => LsqEvent::LoadResolved {
                        tag: l.tag,
                        pc: l.pc,
                        predicted_hit: l.predicted_hit,
                        completes_at: out.completes_at,
                        l1_resolved_at: out.l1_resolved_at,
                        was_l1_hit: out.serviced_by == ServicedBy::L1,
                        forwarded: false,
                    },
                    Err(reason) => {
                        self.stats.mshr_retries += 1;
                        l.retry_at = self.retry_at(mem, now, AccessKind::Read, reason);
                        return true;
                    }
                }
            };
            self.stats.loads_issued += 1;
            reads += 1;
            if let Some(pos) = self.find(l.tag) {
                self.entries[pos].state = State::Done;
            }
            events.push(event);
            false
        });
        self.loads = loads;
        self.note_skipped(mem, skipped);
    }
}

impl chainiq_ckpt::Pack for State {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        match self {
            State::WaitingEa => w.put_u8(0),
            State::Ready(at) => {
                w.put_u8(1);
                at.pack(w);
            }
            State::Done => w.put_u8(2),
        }
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        match r.take_u8("LSQ entry state tag")? {
            0 => Ok(State::WaitingEa),
            1 => Ok(State::Ready(Pack::unpack(r)?)),
            2 => Ok(State::Done),
            _ => {
                Err(chainiq_ckpt::CkptError::Corrupt { context: "LSQ entry state tag".to_string() })
            }
        }
    }
}

impl chainiq_ckpt::Pack for LsqEntry {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.tag.pack(w);
        self.pc.pack(w);
        self.addr.pack(w);
        self.is_store.pack(w);
        self.state.pack(w);
        self.committed.pack(w);
        self.predicted_hit.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(LsqEntry {
            tag: Pack::unpack(r)?,
            pc: Pack::unpack(r)?,
            addr: Pack::unpack(r)?,
            is_store: Pack::unpack(r)?,
            state: Pack::unpack(r)?,
            committed: Pack::unpack(r)?,
            predicted_hit: Pack::unpack(r)?,
        })
    }
}

impl chainiq_ckpt::Pack for LsqStats {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.loads_issued.pack(w);
        self.stores_written.pack(w);
        self.forwards.pack(w);
        self.disambiguation_stalls.pack(w);
        self.mshr_retries.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(LsqStats {
            loads_issued: Pack::unpack(r)?,
            stores_written: Pack::unpack(r)?,
            forwards: Pack::unpack(r)?,
            disambiguation_stalls: Pack::unpack(r)?,
            mshr_retries: Pack::unpack(r)?,
        })
    }
}

impl chainiq_ckpt::Pack for Lsq {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.entries.pack(w);
        self.read_ports.pack(w);
        self.write_ports.pack(w);
        self.stats.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let entries: VecDeque<LsqEntry> = Pack::unpack(r)?;
        if entries.iter().zip(entries.iter().skip(1)).any(|(a, b)| a.tag >= b.tag) {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: "LSQ entries out of tag order".to_string(),
            });
        }
        // The indexes are derived state, rebuilt rather than serialized
        // so the wire format is unchanged. MSHR parking is not carried:
        // a restored queue presents every access once more for real.
        Ok(Lsq::from_entries(entries, Pack::unpack(r)?, Pack::unpack(r)?, Pack::unpack(r)?))
    }
}

/// The full-walk LSQ this module's indexed passes replaced, kept as the
/// reference model of the differential suite below: every cycle it walks
/// the whole queue, rebuilds the older-store address list per load and
/// re-presents every MSHR-rejected access to the hierarchy.
#[cfg(test)]
mod full_walk {
    use super::*;

    #[derive(Debug, Clone)]
    pub(super) struct FullWalkLsq {
        entries: VecDeque<LsqEntry>,
        read_ports: usize,
        write_ports: usize,
        pub(super) stats: LsqStats,
    }

    impl FullWalkLsq {
        pub(super) fn new(read_ports: usize, write_ports: usize) -> Self {
            FullWalkLsq {
                entries: VecDeque::new(),
                read_ports,
                write_ports,
                stats: LsqStats::default(),
            }
        }

        fn find(&self, tag: InstTag) -> Option<usize> {
            self.entries.iter().position(|e| e.tag == tag)
        }

        pub(super) fn push(
            &mut self,
            tag: InstTag,
            pc: u64,
            addr: u64,
            is_store: bool,
            predicted_hit: bool,
        ) {
            self.entries.push_back(LsqEntry {
                tag,
                pc,
                addr,
                is_store,
                state: State::WaitingEa,
                committed: false,
                predicted_hit,
            });
        }

        pub(super) fn ea_computed(&mut self, tag: InstTag, ea_at: Cycle) {
            if let Some(pos) = self.find(tag) {
                let e = &mut self.entries[pos];
                if e.state == State::WaitingEa {
                    e.state = State::Ready(ea_at);
                }
            }
        }

        pub(super) fn on_commit(&mut self, tag: InstTag) {
            if let Some(pos) = self.find(tag) {
                if self.entries[pos].is_store {
                    self.entries[pos].committed = true;
                } else {
                    self.entries.remove(pos);
                }
            }
        }

        pub(super) fn cycle(
            &mut self,
            now: Cycle,
            mem: &mut Hierarchy,
            events: &mut Vec<LsqEvent>,
        ) {
            let mut writes = 0usize;
            let mut written = Vec::new();
            for idx in 0..self.entries.len() {
                if writes >= self.write_ports {
                    break;
                }
                let e = &self.entries[idx];
                if !e.is_store || !e.committed {
                    continue;
                }
                if let State::Ready(at) = e.state {
                    if at <= now {
                        match mem.access(now, e.addr, AccessKind::Write) {
                            Ok(_) => {
                                writes += 1;
                                written.push(idx);
                                events.push(LsqEvent::StoreWritten { tag: e.tag });
                            }
                            Err(_) => self.stats.mshr_retries += 1,
                        }
                    }
                }
            }
            for idx in written.into_iter().rev() {
                self.entries.remove(idx);
            }
            self.stats.stores_written += writes as u64;

            let mut reads = 0usize;
            let mut older_unresolved = false;
            let mut store_addrs = Vec::new();
            let l1_latency = mem.config().l1d.latency;
            for idx in 0..self.entries.len() {
                let e = &self.entries[idx];
                if e.is_store {
                    match e.state {
                        State::WaitingEa => older_unresolved = true,
                        State::Ready(at) if at > now => older_unresolved = true,
                        _ => store_addrs.push(e.addr),
                    }
                    continue;
                }
                let State::Ready(at) = e.state else { continue };
                if at > now {
                    continue;
                }
                if reads >= self.read_ports {
                    break;
                }
                if older_unresolved {
                    self.stats.disambiguation_stalls += 1;
                    continue;
                }
                let (tag, pc, addr, predicted_hit) = (e.tag, e.pc, e.addr, e.predicted_hit);
                let event = if store_addrs.contains(&addr) {
                    self.stats.forwards += 1;
                    LsqEvent::LoadResolved {
                        tag,
                        pc,
                        predicted_hit,
                        completes_at: now + l1_latency,
                        l1_resolved_at: now + l1_latency,
                        was_l1_hit: true,
                        forwarded: true,
                    }
                } else {
                    match mem.access(now, addr, AccessKind::Read) {
                        Ok(out) => LsqEvent::LoadResolved {
                            tag,
                            pc,
                            predicted_hit,
                            completes_at: out.completes_at,
                            l1_resolved_at: out.l1_resolved_at,
                            was_l1_hit: out.serviced_by == ServicedBy::L1,
                            forwarded: false,
                        },
                        Err(_) => {
                            self.stats.mshr_retries += 1;
                            continue;
                        }
                    }
                };
                self.stats.loads_issued += 1;
                reads += 1;
                self.entries[idx].state = State::Done;
                events.push(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::full_walk::FullWalkLsq;
    use super::*;
    use chainiq_devtest::{prop_assert_eq, prop_check, Gen};
    use chainiq_mem::MemConfig;

    fn mem() -> Hierarchy {
        Hierarchy::new(MemConfig::default())
    }

    /// Test shim: one cycle, events collected into a fresh vec.
    fn run_cycle(lsq: &mut Lsq, now: Cycle, m: &mut Hierarchy) -> Vec<LsqEvent> {
        let mut events = Vec::new();
        lsq.cycle(now, m, &mut events);
        events
    }

    #[test]
    fn load_waits_for_ea() {
        let mut lsq = Lsq::new(8, 8);
        let mut m = mem();
        lsq.push(InstTag(0), 0x40, 0x1000, false, false);
        assert!(run_cycle(&mut lsq, 0, &mut m).is_empty());
        lsq.ea_computed(InstTag(0), 2);
        assert!(run_cycle(&mut lsq, 1, &mut m).is_empty(), "EA not ready until cycle 2");
        let ev = run_cycle(&mut lsq, 2, &mut m);
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0], LsqEvent::LoadResolved { tag: InstTag(0), .. }));
    }

    #[test]
    fn load_blocked_by_unknown_store_address() {
        let mut lsq = Lsq::new(8, 8);
        let mut m = mem();
        lsq.push(InstTag(0), 0x40, 0x1000, true, false); // older store, EA unknown
        lsq.push(InstTag(1), 0x44, 0x2000, false, false);
        lsq.ea_computed(InstTag(1), 0);
        assert!(run_cycle(&mut lsq, 0, &mut m).is_empty(), "unknown store blocks the load");
        assert!(lsq.stats().disambiguation_stalls > 0);
        lsq.ea_computed(InstTag(0), 1);
        let ev = run_cycle(&mut lsq, 1, &mut m);
        assert_eq!(ev.len(), 1, "disambiguated: different addresses");
    }

    #[test]
    fn same_address_store_forwards() {
        let mut lsq = Lsq::new(8, 8);
        let mut m = mem();
        lsq.push(InstTag(0), 0x40, 0x1000, true, false);
        lsq.push(InstTag(1), 0x44, 0x1000, false, false);
        lsq.ea_computed(InstTag(0), 0);
        lsq.ea_computed(InstTag(1), 0);
        let ev = run_cycle(&mut lsq, 0, &mut m);
        match ev[0] {
            LsqEvent::LoadResolved { forwarded, was_l1_hit, completes_at, .. } => {
                assert!(forwarded);
                assert!(was_l1_hit);
                assert_eq!(completes_at, 3, "forwarding at L1 latency");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(lsq.stats().forwards, 1);
        assert_eq!(m.stats().l1d.accesses(), 0, "no cache access on a forward");
    }

    #[test]
    fn stores_write_only_after_commit() {
        let mut lsq = Lsq::new(8, 8);
        let mut m = mem();
        lsq.push(InstTag(0), 0x40, 0x1000, true, false);
        lsq.ea_computed(InstTag(0), 0);
        assert!(run_cycle(&mut lsq, 0, &mut m).is_empty(), "uncommitted store does not write");
        lsq.on_commit(InstTag(0));
        let ev = run_cycle(&mut lsq, 1, &mut m);
        assert!(matches!(ev[0], LsqEvent::StoreWritten { tag: InstTag(0) }));
        assert_eq!(lsq.len(), 0, "written store leaves the queue");
    }

    #[test]
    fn committed_load_leaves_queue() {
        let mut lsq = Lsq::new(8, 8);
        let mut m = mem();
        lsq.push(InstTag(0), 0x40, 0x1000, false, false);
        lsq.ea_computed(InstTag(0), 0);
        run_cycle(&mut lsq, 0, &mut m);
        lsq.on_commit(InstTag(0));
        assert_eq!(lsq.len(), 0);
    }

    #[test]
    fn read_ports_limit_per_cycle() {
        let mut lsq = Lsq::new(2, 2);
        let mut m = mem();
        for i in 0..4u64 {
            lsq.push(InstTag(i), 0x40 + i * 4, 0x1000 + i * 4096, false, false);
            lsq.ea_computed(InstTag(i), 0);
        }
        assert_eq!(run_cycle(&mut lsq, 0, &mut m).len(), 2);
        assert_eq!(run_cycle(&mut lsq, 1, &mut m).len(), 2);
    }

    #[test]
    fn pending_accesses_are_visible() {
        let mut lsq = Lsq::new(8, 8);
        assert!(!lsq.has_pending_access());
        lsq.push(InstTag(0), 0x40, 0x1000, false, false);
        assert!(lsq.has_pending_access());
    }

    #[test]
    fn load_after_store_same_line_different_word_is_not_forwarded() {
        let mut lsq = Lsq::new(8, 8);
        let mut m = mem();
        lsq.push(InstTag(0), 0x40, 0x1000, true, false);
        lsq.push(InstTag(1), 0x44, 0x1008, false, false); // same 64B line, next word
        lsq.ea_computed(InstTag(0), 0);
        lsq.ea_computed(InstTag(1), 0);
        let ev = run_cycle(&mut lsq, 0, &mut m);
        match ev[0] {
            LsqEvent::LoadResolved { forwarded, .. } => assert!(!forwarded),
            other => panic!("{other:?}"),
        }
    }

    /// One thread of the differential drive: the indexed queue, the
    /// reference, and the program both see.
    struct Thread {
        new: Lsq,
        reference: FullWalkLsq,
        /// Uncommitted ops in program order.
        ops: VecDeque<Op>,
    }

    struct Op {
        tag: InstTag,
        is_store: bool,
        /// Set once the address generation issued.
        ea_at: Option<Cycle>,
        /// A load whose access resolved.
        resolved: bool,
    }

    /// The queue after a checkpoint round trip, which drops its parking.
    fn round_trip(lsq: &Lsq) -> Lsq {
        use chainiq_ckpt::Pack;
        let mut w = chainiq_ckpt::Writer::new();
        lsq.pack(&mut w);
        let bytes = w.into_bytes();
        let mut back = Lsq::unpack(&mut chainiq_ckpt::Reader::new(&bytes)).expect("own image");
        back.fault = lsq.fault;
        back.skipped = lsq.skipped;
        back
    }

    /// Drives both queues through one random program against cloned
    /// hierarchies with a tiny MSHR file, comparing events and every
    /// counter each cycle. Returns the parked-skip count (accesses the
    /// indexed queue counted without presenting).
    fn differential(g: &mut Gen, fault: Option<ParkFault>) -> Result<u64, String> {
        let mut cfg = MemConfig::default();
        cfg.l1d.mshrs = g.usize(2..5);
        cfg.l2.mshrs = g.usize(2..6);
        let mut mem_new = Hierarchy::new(cfg);
        let mut mem_ref = mem_new.clone();
        let (read_ports, write_ports) = (g.usize(1..5), g.usize(1..3));
        let mut threads: Vec<Thread> = (0..g.usize(1..3))
            .map(|_| {
                let mut new = Lsq::new(read_ports, write_ports);
                if let Some(f) = fault {
                    new.inject(f);
                }
                Thread {
                    new,
                    reference: FullWalkLsq::new(read_ports, write_ports),
                    ops: VecDeque::new(),
                }
            })
            .collect();
        // Many distinct lines so fills keep the MSHR files full, plus a
        // small hot set so stores and loads collide and forward.
        let lines = g.u64(40..400);
        let mut next_tag = 0u64;
        let (mut ev_new, mut ev_ref) = (Vec::new(), Vec::new());
        for now in 1..g.u64(200..600) {
            for (t, th) in threads.iter_mut().enumerate() {
                // Dispatch.
                for _ in 0..g.usize(0..4) {
                    let tag = InstTag(next_tag);
                    next_tag += 1;
                    let is_store = g.u8(0..4) == 0;
                    let addr = if g.u8(0..4) == 0 {
                        g.u64(0..8) * 8
                    } else {
                        ((t as u64) << 32) | (g.u64(0..lines) * 64 + g.u64(0..8) * 8)
                    };
                    let predicted_hit = g.bool();
                    th.new.push(tag, 0x400 + tag.0 * 4, addr, is_store, predicted_hit);
                    th.reference.push(tag, 0x400 + tag.0 * 4, addr, is_store, predicted_hit);
                    th.ops.push_back(Op { tag, is_store, ea_at: None, resolved: false });
                }
                // Out-of-order address generation.
                for op in th.ops.iter_mut() {
                    if op.ea_at.is_none() && g.u8(0..3) == 0 {
                        let at = now + g.u64(0..3);
                        op.ea_at = Some(at);
                        th.new.ea_computed(op.tag, at);
                        th.reference.ea_computed(op.tag, at);
                    }
                }
                // Now and then a checkpoint restore: the rebuilt indexes
                // must carry on exactly.
                if g.u8(0..50) == 0 {
                    th.new = round_trip(&th.new);
                }
            }
            // An instruction fetch now and then: shared L2 traffic.
            if g.u8(0..4) == 0 {
                let pc = (1 << 40) + g.u64(0..lines) * 64;
                let a = mem_new.access(now, pc, AccessKind::Ifetch);
                let b = mem_ref.access(now, pc, AccessKind::Ifetch);
                prop_assert_eq!(a, b, "ifetch at cycle {now}");
            }
            for (t, th) in threads.iter_mut().enumerate() {
                ev_new.clear();
                ev_ref.clear();
                th.new.cycle(now, &mut mem_new, &mut ev_new);
                th.reference.cycle(now, &mut mem_ref, &mut ev_ref);
                prop_assert_eq!(ev_new, ev_ref, "thread {t} events at cycle {now}");
                prop_assert_eq!(
                    th.new.stats(),
                    th.reference.stats,
                    "thread {t} stats at cycle {now}"
                );
                prop_assert_eq!(mem_new.stats(), mem_ref.stats(), "memory stats at cycle {now}");
                for ev in &ev_new {
                    if let LsqEvent::LoadResolved { tag, .. } = ev {
                        if let Some(op) = th.ops.iter_mut().find(|o| o.tag == *tag) {
                            op.resolved = true;
                        }
                    }
                }
                // In-order commit of completed ops.
                for _ in 0..g.usize(0..4) {
                    let Some(op) = th.ops.front() else { break };
                    let done = op.resolved || (op.is_store && op.ea_at.is_some_and(|at| at <= now));
                    if !done {
                        break;
                    }
                    th.new.on_commit(op.tag);
                    th.reference.on_commit(op.tag);
                    th.ops.pop_front();
                }
            }
        }
        Ok(threads.iter().map(|th| th.new.skipped).sum())
    }

    prop_check! {
        /// The indexed queue with MSHR parking is indistinguishable from
        /// the full-walk reference: same events, same LSQ counters, same
        /// memory counters, every cycle.
        fn indexed_lsq_matches_full_walk(g, cases = 48) {
            differential(g, None)?;
        }

        /// Retrying one cycle early only wastes a real attempt that is
        /// rejected again, so it stays exact.
        fn shorter_park_window_stays_exact(g, cases = 16) {
            differential(g, Some(ParkFault::OneCycleShorter))?;
        }
    }

    #[test]
    fn differential_exercises_parking() {
        let skips: u64 =
            (0..8).map(|seed| differential(&mut Gen::new(seed, 0), None).unwrap()).sum();
        assert!(
            skips > 10_000,
            "only {skips} parked attempts: the suite misses the MSHR-full path"
        );
    }

    #[test]
    fn longer_park_window_is_caught() {
        let fired = (0..8)
            .filter(|&seed| {
                differential(&mut Gen::new(seed, 0), Some(ParkFault::OneCycleLonger)).is_err()
            })
            .count();
        assert!(fired > 0, "parking one cycle too long went unnoticed");
    }
}
