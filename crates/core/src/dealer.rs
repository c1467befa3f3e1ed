//! Background offline dealer: precomputed Beaver material off the
//! critical path.
//!
//! A prepared model's per-inference offline cost is the triple draw on
//! each linear layer's [`TripleLane`]: sampling a fresh compact `A`,
//! computing `Z = expand(A) ⊗ B` (a full GEMM at layer shape, on the
//! party whose `Z` share is not the random half of the split) and
//! splitting both into shares. Inline, that work sits on the online
//! critical path even though it depends on nothing the client sends.
//!
//! [`DealerPool`] moves it onto a dedicated [`aq2pnn_parallel::Worker`]:
//! each lane becomes a [`LaneSlot`] — the lane itself plus a bounded FIFO
//! of pre-generated [`LaneTriple`]s keyed by the lane's `(a_shape, ℓ)` —
//! and a single background refill loop keeps every queue at its
//! configured depth (backpressure: the producer sleeps while all queues
//! are full and wakes on consumption). A warm online pass then *pops*
//! instead of *generating*.
//!
//! ## Determinism
//!
//! Correctness requires both parties to consume triple `#k` of a lane for
//! inference `#k` — the lane's RNG stream defines the material. Two
//! invariants keep that true with a concurrent producer:
//!
//! * generation is serialized by the lane mutex and the producer pushes
//!   into the queue **before** releasing it, so queue order == RNG order;
//! * a consumer that misses the queue acquires the lane mutex (waiting
//!   out any in-flight background generation), re-checks the queue, and
//!   only then generates inline — the next element of the stream.
//!
//! Production *timing* therefore never affects protocol transcripts: the
//! pool is a pure latency optimization, local to each party, with no
//! cross-party coordination.
//!
//! ## Exhaustion
//!
//! [`ExhaustionPolicy::GenerateInline`] (the default) degrades to the
//! inline path on a miss — a cold pool is merely slow, never wrong.
//! [`ExhaustionPolicy::Fail`] instead surfaces the typed
//! [`ProtocolError::DealerExhausted`], for deployments that would rather
//! shed load than let online latency absorb offline work.
//!
//! OT label powers (the other offline-ish material) are *not* pooled
//! here: they are cached per batch inside `aq2pnn_ot::flow` and their
//! cost is already amortized across the batch dimension.

use crate::{PartyContext, ProtocolError};
use aq2pnn_obs::{MetricsRegistry, Tracer};
use aq2pnn_parallel::sync::{AtomicBool, Condvar, Mutex, Ordering};
use aq2pnn_parallel::Worker;
use aq2pnn_ring::RingTensor;
use aq2pnn_sharing::dealer::{LaneTriple, TripleLane};
use std::collections::VecDeque;
use std::sync::Arc;

/// The public linear expansion a lane's `Z` is computed under (im2col for
/// conv layers, row-vector reshape for linear layers).
pub type ExpandFn = Box<dyn Fn(&RingTensor) -> RingTensor + Send + Sync>;

/// What [`LaneSlot::take`] does when the precomputed queue is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustionPolicy {
    /// Generate the next triple inline on the caller's thread (correct,
    /// merely slower — the cold-start and overload fallback).
    GenerateInline,
    /// Return [`ProtocolError::DealerExhausted`] so the caller can shed
    /// the request instead of absorbing offline latency online.
    Fail,
}

/// Configuration for [`DealerPool`].
#[derive(Debug, Clone, Copy)]
pub struct DealerConfig {
    /// Precomputed triples kept per lane (the backpressure bound).
    pub depth: usize,
    /// Behavior when a take misses the queue.
    pub policy: ExhaustionPolicy,
}

impl Default for DealerConfig {
    fn default() -> Self {
        // Two full batches of headroom at the service's default batch
        // size; small enough that a LeNet5-sized model pools a few MiB.
        DealerConfig { depth: 16, policy: ExhaustionPolicy::GenerateInline }
    }
}

/// Pool-wide state shared between the handle, the slots and the refill
/// loop. Deliberately free of references back to the slots so there is no
/// `Arc` cycle.
struct PoolSignal {
    state: Mutex<PoolState>,
    /// Wakes the refill loop (consumption made space / pause toggled /
    /// shutdown).
    wake: Condvar,
}

struct PoolState {
    paused: bool,
    closed: bool,
    /// Set by consumers after a pop; cleared by the producer before each
    /// scan so wakeups are never lost.
    dirty: bool,
}

/// One lane's pooled offline material: the generator (lane + expansion)
/// and the bounded queue of ready triples.
pub struct LaneSlot {
    label: String,
    /// Generation order == consumption order == the lane's RNG stream.
    /// Lock order is always `lane` then `queue`; the take fast path locks
    /// `queue` alone.
    lane: Mutex<TripleLane>,
    expand: ExpandFn,
    queue: Mutex<VecDeque<LaneTriple>>,
    depth: usize,
    policy: ExhaustionPolicy,
    signal: Arc<PoolSignal>,
    metrics: MetricsRegistry,
    /// Set when a background generation step panicked mid-draw. A panic
    /// inside `lane.next` may have half-advanced the lane's RNG stream,
    /// so *any* further draw from this lane — background or inline —
    /// risks a silent cross-party desync. A wedged slot therefore fails
    /// every take with [`ProtocolError::DealerExhausted`], regardless of
    /// policy, and the refill loop stops touching it.
    wedged: AtomicBool,
}

impl std::fmt::Debug for LaneSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneSlot")
            .field("label", &self.label)
            .field("depth", &self.depth)
            .field("queued", &self.queue.lock().len())
            .finish_non_exhaustive()
    }
}

impl LaneSlot {
    /// The layer label this slot serves (`conv0`, `fc4`, …).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Triples currently ready in the queue.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.lock().len()
    }

    /// True once a background generation step panicked on this lane (see
    /// the `wedged` field docs); the slot refuses all further takes.
    #[must_use]
    pub fn is_wedged(&self) -> bool {
        self.wedged.load(Ordering::SeqCst)
    }

    /// Pops the next precomputed triple, falling back per the configured
    /// [`ExhaustionPolicy`] when the queue is empty.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::DealerExhausted`] on an empty queue under
    /// [`ExhaustionPolicy::Fail`].
    pub fn take(&self) -> Result<LaneTriple, ProtocolError> {
        if self.is_wedged() {
            // Not policy-dependent: after a mid-draw panic the stream
            // position is unknown, so inline fallback could desync the
            // parties. Shedding with a typed error is the only safe
            // degradation.
            return Err(ProtocolError::DealerExhausted { layer: self.label.clone() });
        }
        if let Some(t) = self.pop() {
            self.metrics.add("dealer.hits", 1);
            return Ok(t);
        }
        self.metrics.add("dealer.misses", 1);
        match self.policy {
            ExhaustionPolicy::Fail => {
                Err(ProtocolError::DealerExhausted { layer: self.label.clone() })
            }
            ExhaustionPolicy::GenerateInline => {
                // Wait out any in-flight background generation (it pushes
                // before releasing the lane lock), then re-check: a triple
                // that landed meanwhile is *earlier* in the stream than
                // anything we could generate now.
                let started = std::time::Instant::now();
                let t = {
                    let mut lane = self.lane.lock();
                    match self.pop() {
                        Some(t) => t,
                        None => lane.next(|t| (self.expand)(t)),
                    }
                };
                // Bill the whole detour (lane-lock wait + inline
                // generation) as starvation: wall-clock the online path
                // lost to offline work. Recorded outside the lane guard;
                // sub-millisecond stalls round down to 0.
                let ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
                self.metrics.add("dealer.starved_ms", ms);
                Ok(t)
            }
        }
    }

    /// Queue pop + bookkeeping shared by the hit path and the post-lock
    /// re-check.
    fn pop(&self) -> Option<LaneTriple> {
        let mut queue = self.queue.lock();
        let t = queue.pop_front();
        let len = queue.len();
        drop(queue);
        if t.is_some() {
            self.record_depth(len);
            // Space opened up: wake the refill loop.
            self.signal.state.lock().dirty = true;
            self.signal.wake.notify_all();
        }
        t
    }

    /// One background generation step: produce the lane's next triple and
    /// queue it. Returns `false` when the queue is already at depth.
    fn refill_one(&self) -> bool {
        let lane = &mut *self.lane.lock();
        if self.queue.lock().len() >= self.depth {
            return false;
        }
        let t = lane.next(|t| (self.expand)(t));
        // Push while still holding the lane lock: queue order == stream
        // order even against the inline-fallback path.
        let mut queue = self.queue.lock();
        queue.push_back(t);
        let len = queue.len();
        drop(queue);
        self.metrics.add("dealer.generated", 1);
        self.record_depth(len);
        true
    }

    #[allow(clippy::cast_precision_loss)]
    fn record_depth(&self, len: usize) {
        if self.metrics.is_enabled() {
            self.metrics.gauge_set(&format!("dealer.queue_depth.{}", self.label), len as f64);
        }
    }
}

/// One hub member: a live pool's slots, keyed so the pool's drop can
/// deregister exactly itself.
struct HubMember {
    id: u64,
    slots: Vec<Arc<LaneSlot>>,
}

/// A refill worker **shared across sessions**: one thread, one condvar,
/// many [`DealerPool`]s. The multi-tenant server keeps a single hub and
/// registers each session's prepared-model lanes with it
/// ([`crate::prepared::PreparedModel::spawn_dealer_on`]); a session's
/// teardown drops its pool, which deregisters its lanes — the reclaim the
/// chaos soak asserts on — without disturbing any other session's queues.
///
/// Dropping the hub itself stops refilling for everyone; surviving pools
/// degrade to their exhaustion policy on the still-valid slots.
pub struct DealerHub {
    signal: Arc<PoolSignal>,
    members: Arc<Mutex<Vec<HubMember>>>,
    next_id: Mutex<u64>,
    /// Keeps the shared refill thread alive; dropped (and joined) last.
    _worker: Worker,
}

impl std::fmt::Debug for DealerHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DealerHub").field("pools", &self.members.lock().len()).finish()
    }
}

impl DealerHub {
    /// Starts the shared refill worker (named `aq2pnn-dealer`, same as a
    /// dedicated pool's) with no members yet.
    #[must_use]
    pub fn new() -> DealerHub {
        let signal = Arc::new(PoolSignal {
            state: Mutex::new(PoolState { paused: false, closed: false, dirty: true }),
            wake: Condvar::new(),
        });
        let members: Arc<Mutex<Vec<HubMember>>> = Arc::new(Mutex::new(Vec::new()));
        let worker = Worker::spawn("aq2pnn-dealer");
        let loop_members = Arc::clone(&members);
        let loop_signal = Arc::clone(&signal);
        worker.submit(move || hub_refill_loop(&loop_members, &loop_signal));
        DealerHub { signal, members, next_id: Mutex::new(0), _worker: worker }
    }

    /// Live registered pools (sessions currently drawing from the hub).
    #[must_use]
    pub fn member_pools(&self) -> usize {
        self.members.lock().len()
    }

    /// Registers `lanes` as a new pool fed by this hub's worker. The
    /// returned pool behaves like [`DealerPool::new`]'s except that
    /// dropping it only deregisters these lanes — the shared worker keeps
    /// serving every other member.
    #[must_use]
    pub fn register(
        &self,
        tracer: &Tracer,
        metrics: &MetricsRegistry,
        lanes: Vec<(String, TripleLane, ExpandFn)>,
        cfg: DealerConfig,
    ) -> DealerPool {
        let slots = make_slots(&self.signal, metrics, lanes, cfg);
        tracer.info(format!(
            "dealer: hub pool over {} lanes, depth {}, policy {:?}",
            slots.len(),
            cfg.depth.max(1),
            cfg.policy
        ));
        let id = {
            let mut next = self.next_id.lock();
            *next += 1;
            *next
        };
        self.members.lock().push(HubMember { id, slots: slots.clone() });
        // New empty queues exist: wake the shared loop to warm them.
        self.signal.state.lock().dirty = true;
        self.signal.wake.notify_all();
        DealerPool {
            slots,
            signal: Arc::clone(&self.signal),
            attachment: Attachment::Hub { members: Arc::clone(&self.members), id },
        }
    }
}

impl Default for DealerHub {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for DealerHub {
    fn drop(&mut self) {
        self.signal.state.lock().closed = true;
        self.signal.wake.notify_all();
        // `_worker` drops after this, joining the shared refill thread.
    }
}

/// How a [`DealerPool`]'s slots are kept warm, which also fixes what its
/// drop must tear down.
enum Attachment {
    /// Dedicated worker: drop closes the pool signal and joins the thread.
    Owned(#[allow(dead_code)] Worker),
    /// Member of a shared [`DealerHub`]: drop deregisters this pool's
    /// slots; the hub's worker and the other members are untouched.
    Hub { members: Arc<Mutex<Vec<HubMember>>>, id: u64 },
}

/// Handle to a running background dealer. Owns (or holds membership in)
/// the refill worker; on drop the refill stops for this pool's lanes and
/// any model still pointing at the slots falls back to inline generation
/// (the slots stay valid via `Arc`).
pub struct DealerPool {
    slots: Vec<Arc<LaneSlot>>,
    signal: Arc<PoolSignal>,
    attachment: Attachment,
}

impl std::fmt::Debug for DealerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DealerPool").field("lanes", &self.slots.len()).finish_non_exhaustive()
    }
}

impl DealerPool {
    /// Builds a pool over `lanes` (one `(label, lane, expand)` per linear
    /// layer, in layer order) and starts the background refill loop.
    ///
    /// Used through [`crate::prepared::PreparedModel::spawn_dealer`],
    /// which moves a prepared model's resident lanes in here; constructing
    /// directly is useful for tests and benches.
    #[must_use]
    pub fn new(
        ctx: &PartyContext,
        lanes: Vec<(String, TripleLane, ExpandFn)>,
        cfg: DealerConfig,
    ) -> DealerPool {
        Self::new_inner(&ctx.tracer, &ctx.metrics, lanes, cfg)
    }

    /// Context-free constructor backing [`DealerPool::new`]; the loom
    /// models build pools through this without standing up a transport.
    pub(crate) fn new_inner(
        tracer: &Tracer,
        metrics: &MetricsRegistry,
        lanes: Vec<(String, TripleLane, ExpandFn)>,
        cfg: DealerConfig,
    ) -> DealerPool {
        let signal = Arc::new(PoolSignal {
            state: Mutex::new(PoolState { paused: false, closed: false, dirty: true }),
            wake: Condvar::new(),
        });
        let slots = make_slots(&signal, metrics, lanes, cfg);
        tracer.info(format!(
            "dealer: background pool over {} lanes, depth {}, policy {:?}",
            slots.len(),
            cfg.depth.max(1),
            cfg.policy
        ));
        let worker = Worker::spawn("aq2pnn-dealer");
        let loop_slots = slots.clone();
        let loop_signal = Arc::clone(&signal);
        worker.submit(move || refill_loop(&loop_slots, &loop_signal));
        DealerPool { slots, signal, attachment: Attachment::Owned(worker) }
    }

    /// The pooled lane slots, in layer order.
    #[must_use]
    pub fn slots(&self) -> &[Arc<LaneSlot>] {
        &self.slots
    }

    /// Stops background refilling (queues drain but are not replenished).
    /// Deterministic-exhaustion knob for tests and cold-start benches.
    /// On a hub-registered pool this pauses the *shared* refill loop —
    /// every member — since the signal is hub-wide.
    pub fn pause(&self) {
        self.signal.state.lock().paused = true;
        self.signal.wake.notify_all();
    }

    /// Resumes background refilling after [`DealerPool::pause`].
    pub fn resume(&self) {
        let mut st = self.signal.state.lock();
        st.paused = false;
        st.dirty = true;
        drop(st);
        self.signal.wake.notify_all();
    }

    /// True once every lane queue is at its configured depth.
    #[must_use]
    pub fn is_warm(&self) -> bool {
        self.slots.iter().all(|s| s.queued() >= s.depth)
    }

    /// Blocks until the pool is warm or `timeout` elapses; returns whether
    /// it warmed in time.
    #[must_use]
    pub fn wait_warm(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while !self.is_warm() {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        true
    }
}

impl Drop for DealerPool {
    fn drop(&mut self) {
        match &self.attachment {
            Attachment::Owned(_) => {
                self.signal.state.lock().closed = true;
                self.signal.wake.notify_all();
                // The owned worker drops after this, joining the thread.
            }
            Attachment::Hub { members, id } => {
                // Deregister only this pool's lanes; the shared worker and
                // every other member keep running.
                members.lock().retain(|m| m.id != *id);
                self.signal.state.lock().dirty = true;
                self.signal.wake.notify_all();
            }
        }
    }
}

/// Builds the slot set for one pool over `signal`, shared by the dedicated
/// and hub constructors.
fn make_slots(
    signal: &Arc<PoolSignal>,
    metrics: &MetricsRegistry,
    lanes: Vec<(String, TripleLane, ExpandFn)>,
    cfg: DealerConfig,
) -> Vec<Arc<LaneSlot>> {
    let depth = cfg.depth.max(1);
    lanes
        .into_iter()
        .map(|(label, lane, expand)| {
            Arc::new(LaneSlot {
                label,
                lane: Mutex::new(lane),
                expand,
                queue: Mutex::new(VecDeque::with_capacity(depth)),
                depth,
                policy: cfg.policy,
                signal: Arc::clone(signal),
                metrics: metrics.clone(),
                wedged: AtomicBool::new(false),
            })
        })
        .collect()
}

/// The shared-hub refill loop: like [`refill_loop`] but re-snapshots the
/// member list each sweep, so pools can register and deregister while the
/// worker runs. Lock order: pool-signal state and the member list are
/// never held together.
fn hub_refill_loop(members: &Arc<Mutex<Vec<HubMember>>>, signal: &Arc<PoolSignal>) {
    loop {
        {
            let mut st = signal.state.lock();
            if st.closed {
                return;
            }
            if st.paused {
                let _st = signal.wake.wait(st);
                continue;
            }
            st.dirty = false;
        }
        let snapshot: Vec<Arc<LaneSlot>> =
            members.lock().iter().flat_map(|m| m.slots.iter().cloned()).collect();
        let mut progressed = false;
        for slot in &snapshot {
            if signal.state.lock().closed {
                return;
            }
            if slot.is_wedged() {
                continue;
            }
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.refill_one())) {
                Ok(p) => progressed |= p,
                Err(_) => slot.wedged.store(true, Ordering::SeqCst),
            }
        }
        if !progressed {
            let st = signal.state.lock();
            if !st.dirty && !st.closed {
                let _st = signal.wake.wait(st);
            }
        }
    }
}

/// The background refill loop: round-robin over the slots, topping each
/// queue up to depth; park on the pool condvar when no queue has space.
fn refill_loop(slots: &[Arc<LaneSlot>], signal: &Arc<PoolSignal>) {
    loop {
        {
            let mut st = signal.state.lock();
            if st.closed {
                return;
            }
            if st.paused {
                let _st = signal.wake.wait(st);
                continue;
            }
            // Consume the pending wakeup; a pop arriving after this point
            // re-sets it and the post-scan wait returns immediately.
            st.dirty = false;
        }
        let mut progressed = false;
        for slot in slots {
            // One triple per slot per sweep keeps refill breadth-first
            // across layers, so a whole inference's worth of material
            // becomes available as early as possible.
            if signal.state.lock().closed {
                return;
            }
            if slot.is_wedged() {
                continue;
            }
            // A panicking expansion must not take down the refill thread
            // (the other slots can still serve) — but it wedges its slot:
            // the lane's stream position is now unknowable.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.refill_one())) {
                Ok(p) => progressed |= p,
                Err(_) => slot.wedged.store(true, Ordering::SeqCst),
            }
        }
        if !progressed {
            let st = signal.state.lock();
            if !st.dirty && !st.closed {
                let _st = signal.wake.wait(st);
            }
        }
    }
}

/// Where a prepared linear layer draws its per-inference triples from:
/// its own resident lane (inline generation on the online path) or a
/// pooled slot fed by the background dealer.
pub(crate) enum TripleSource {
    Inline(Box<TripleLane>),
    Pooled(Arc<LaneSlot>),
}

impl TripleSource {
    /// Draws the next `b` triples in stream order (one per batched image).
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolError::DealerExhausted`] from a strict pooled
    /// slot.
    #[allow(clippy::cast_precision_loss)]
    pub(crate) fn take_n(
        &mut self,
        b: usize,
        expand: impl Fn(&RingTensor) -> RingTensor,
    ) -> Result<Vec<LaneTriple>, ProtocolError> {
        match self {
            TripleSource::Inline(lane) => Ok((0..b).map(|_| lane.next(&expand)).collect()),
            TripleSource::Pooled(slot) => {
                slot.metrics.observe_with(
                    "dealer.take_batch",
                    &aq2pnn_obs::Histogram::exponential(1.0, 2.0, 6),
                    b as f64,
                );
                (0..b).map(|_| slot.take()).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq2pnn_ring::Ring;
    use aq2pnn_sharing::dealer::TripleDealer;
    use aq2pnn_sharing::PartyId;
    use std::time::{Duration, Instant};

    fn tiny_lane(seed: u64) -> TripleLane {
        let mut dealer = TripleDealer::from_seed(seed);
        let (lane, _b) = dealer.expanded_lane(PartyId::User, Ring::new(8), &[1, 2], &[2, 1]);
        lane
    }

    /// A panic inside a background generation step must wedge only that
    /// slot — every take on it fails typed (inline fallback would risk a
    /// cross-party desync from a half-advanced RNG stream) — while the
    /// refill thread survives to keep serving the healthy lanes.
    #[test]
    fn panicked_refill_wedges_slot_but_pool_survives() {
        let bomb: ExpandFn = Box::new(|t: &RingTensor| {
            if std::thread::current().name() == Some("aq2pnn-dealer") {
                panic!("seeded refill bomb");
            }
            t.clone()
        });
        let pool = DealerPool::new_inner(
            &Tracer::disabled(),
            &MetricsRegistry::disabled(),
            vec![
                ("bad".to_string(), tiny_lane(1), bomb),
                ("good".to_string(), tiny_lane(2), Box::new(RingTensor::clone)),
            ],
            DealerConfig { depth: 2, policy: ExhaustionPolicy::GenerateInline },
        );
        let bad = Arc::clone(&pool.slots()[0]);
        let good = Arc::clone(&pool.slots()[1]);

        let deadline = Instant::now() + Duration::from_secs(10);
        while !(bad.is_wedged() && good.queued() >= 2) {
            assert!(Instant::now() < deadline, "pool never wedged bad / warmed good");
            std::thread::sleep(Duration::from_millis(1));
        }

        // Wedged slot: typed failure despite the GenerateInline policy.
        match bad.take() {
            Err(ProtocolError::DealerExhausted { ref layer }) => assert_eq!(layer, "bad"),
            Ok(_) => panic!("wedged slot must not serve"),
            Err(other) => panic!("expected DealerExhausted, got {other}"),
        }

        // Healthy slot still drains and refills: the worker outlived the
        // panic.
        for _ in 0..4 {
            good.take().expect("healthy lane keeps serving");
        }
        drop(pool); // join must not hang on the survived worker
    }

    /// Two pools share one hub worker; dropping one deregisters only its
    /// lanes (the reclaim path the server relies on), while the other
    /// keeps refilling. Dropping the hub stops refills but leaves the
    /// surviving pool's slots valid for inline fallback.
    #[test]
    fn hub_shares_worker_and_reclaims_dropped_pools() {
        let hub = DealerHub::new();
        let tracer = Tracer::disabled();
        let metrics = MetricsRegistry::disabled();
        let cfg = DealerConfig { depth: 2, policy: ExhaustionPolicy::GenerateInline };
        let p1 = hub.register(
            &tracer,
            &metrics,
            vec![("a".into(), tiny_lane(1), Box::new(RingTensor::clone) as ExpandFn)],
            cfg,
        );
        let p2 = hub.register(
            &tracer,
            &metrics,
            vec![("b".into(), tiny_lane(2), Box::new(RingTensor::clone) as ExpandFn)],
            cfg,
        );
        assert_eq!(hub.member_pools(), 2);
        assert!(p1.wait_warm(Duration::from_secs(10)), "hub never warmed pool 1");
        assert!(p2.wait_warm(Duration::from_secs(10)), "hub never warmed pool 2");

        // Session teardown: pool 1's lanes deregister, pool 2 survives.
        drop(p1);
        assert_eq!(hub.member_pools(), 1);
        let s2 = Arc::clone(&p2.slots()[0]);
        for _ in 0..4 {
            s2.take().expect("surviving pool keeps serving");
        }
        assert!(p2.wait_warm(Duration::from_secs(10)), "hub stopped refilling survivor");

        // Hub teardown: no more refills, but takes still succeed inline.
        drop(hub);
        for _ in 0..3 {
            s2.take().expect("inline fallback after hub drop");
        }
        drop(p2);
    }
}

/// Exhaustive schedule exploration of the dealer's push-before-unlock
/// queue and backpressure parking, on the production code (the `sync`
/// facade swaps in the loom backend). Run via
/// `RUSTFLAGS="--cfg loom" cargo test -p aq2pnn --lib loom_`.
#[cfg(all(loom, test))]
mod loom_tests {
    use super::*;
    use aq2pnn_ring::Ring;
    use aq2pnn_sharing::dealer::TripleDealer;
    use aq2pnn_sharing::PartyId;

    /// A consumer draining a depth-1 pool races the background refill
    /// loop. Under every interleaving: takes must yield the lane's RNG
    /// stream in order (push-before-unlock invariant), no schedule may
    /// deadlock (lost-wakeup freedom for the dirty/wake handshake, both
    /// directions), and drop must shut the refill loop down cleanly.
    #[test]
    fn loom_dealer_stream_order_and_shutdown() {
        loom::model(|| {
            let mut dealer = TripleDealer::from_seed(7);
            // 1×1 shapes keep the state space small.
            let (lane, _b) = dealer.expanded_lane(PartyId::User, Ring::new(8), &[1, 1], &[1, 1]);
            let mut reference = lane.clone();
            let expected: Vec<LaneTriple> =
                (0..3).map(|_| reference.next(RingTensor::clone)).collect();

            let pool = DealerPool::new_inner(
                &Tracer::disabled(),
                &MetricsRegistry::disabled(),
                vec![("l0".to_string(), lane, Box::new(RingTensor::clone) as ExpandFn)],
                DealerConfig { depth: 1, policy: ExhaustionPolicy::GenerateInline },
            );
            let slot = Arc::clone(&pool.slots()[0]);
            for (k, want) in expected.iter().enumerate() {
                let got = slot.take().expect("take under GenerateInline");
                assert!(got == *want, "take {k} out of stream order");
            }
            drop(pool);
        });
        assert!(loom::explored() > 1, "model must explore real interleavings");
    }
}
