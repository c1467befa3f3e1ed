//! The multi-tenant inference server: accept loop, bounded admission,
//! per-session workers, reaper and graceful drain (DESIGN.md §13).
//!
//! # Lock classes (audited by `cargo xtask lint-concurrency`)
//!
//! * `server.sessions` — the live-session table. Leaf lock: held only to
//!   push/scan/remove slots; all transport teardown happens on clones
//!   *after* the guard drops.
//! * `server.workers` — the session-worker sweep list. Leaf lock: worker
//!   handles are moved out under the guard and joined outside it.
//! * `server.templates` — inside [`TemplateCache`]; leaf (see its docs).
//!
//! No thread ever holds two of these at once, and the run gate is a bare
//! atomic, so the class graph is trivially acyclic. Blocking calls
//! (accept, recv, join, sleep) always run guard-free.

use crate::acceptor::Acceptor;
use crate::activity::ActivityTransport;
use crate::proto::{encode_reply, InferenceRequest};
use crate::registry::{ModelRegistry, TemplateCache};
use aq2pnn::dealer::{DealerConfig, DealerHub};
use aq2pnn::engine::BatchInput;
use aq2pnn::{PartyContext, ProtocolConfig};
use aq2pnn_obs::{
    ArgValue, Counter, FlightRecorder, Histogram, MetricsRegistry, SloClass, SloTracker, Tracer,
    SLO_BUCKET_BOUNDS_MS,
};
use aq2pnn_parallel::sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering};
use aq2pnn_parallel::Worker;
use aq2pnn_sharing::PartyId;
use aq2pnn_transport::{Endpoint, Frame, FrameKind, Session, Transport, TransportError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for an [`InferenceServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Sessions served concurrently (2PC online passes in flight).
    pub max_sessions: usize,
    /// Additional admitted sessions parked waiting for a serve slot.
    /// Admission beyond `max_sessions + queue_depth` is answered with a
    /// typed `Shed` frame and a close — never a hang.
    pub queue_depth: usize,
    /// How long an admitted client gets to send its `Hello` and request
    /// header before the session is rejected.
    pub admission_timeout: Duration,
    /// Per-receive deadline during the 2PC protocol (a black-holed peer
    /// becomes a typed timeout, not a stuck worker).
    pub io_deadline: Duration,
    /// Wall-clock budget for one whole session; the reaper tears down
    /// overstayers.
    pub session_deadline: Duration,
    /// Reaper teardown for sessions with no link traffic this long
    /// (slow-loris defense).
    pub idle_timeout: Duration,
    /// Reaper scan cadence.
    pub reap_interval: Duration,
    /// Graceful-drain budget: how long [`InferenceServer::drain`] waits
    /// for in-flight sessions before force-closing them.
    pub drain_timeout: Duration,
    /// Background offline dealer, shared across sessions through one
    /// [`DealerHub`]; `None` generates triples inline on the online path.
    pub dealer: Option<DealerConfig>,
    /// End-to-end latency budget in milliseconds; completed sessions
    /// exceeding it bump the `server.slo_violations` counter. `None`
    /// tracks latency histograms without a budget.
    pub slo_ms: Option<u64>,
    /// Directory for flight-recorder dumps (`flightrec-<stream>.json`).
    /// `None` disables per-session recording entirely; when set, every
    /// session records into a bounded ring that is dropped on clean
    /// completion and dumped here when the session faults, is rejected
    /// or is reaped.
    pub flightrec_dir: Option<std::path::PathBuf>,
    /// Retained records per session flight recorder.
    pub flightrec_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 4,
            queue_depth: 4,
            admission_timeout: Duration::from_secs(5),
            io_deadline: Duration::from_secs(60),
            session_deadline: Duration::from_secs(600),
            idle_timeout: Duration::from_secs(60),
            reap_interval: Duration::from_millis(25),
            drain_timeout: Duration::from_secs(10),
            dealer: None,
            slo_ms: None,
            flightrec_dir: None,
            flightrec_capacity: 256,
        }
    }
}

/// Observability sinks for the server (disabled by default, like every
/// other layer).
#[derive(Clone, Default)]
pub struct ServerObs {
    /// Span/progress sink shared by all sessions.
    pub tracer: Tracer,
    /// Metric registry: the `server.*` family and whatever the sessions'
    /// protocol layers record.
    pub metrics: MetricsRegistry,
}

/// Point-in-time server accounting, readable without a metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Sessions admitted (assigned a stream ID).
    pub admitted: u64,
    /// Connections answered with a `Shed` frame (admission bound/drain).
    pub shed: u64,
    /// Sessions torn down by the reaper or drain force-close.
    pub reaped: u64,
    /// Sessions dropped for malformed admission or request traffic.
    pub rejected: u64,
    /// Sessions that failed mid-protocol from a client-side fault.
    pub faulted: u64,
    /// Sessions that ran to completion.
    pub completed: u64,
    /// Sessions currently in flight.
    pub active: u64,
}

/// What [`InferenceServer::drain`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Every in-flight session finished within the budget.
    pub clean: bool,
    /// Sessions force-closed after the budget expired.
    pub forced: u64,
    /// Wall-clock the drain took, in milliseconds.
    pub drain_ms: u64,
}

struct Counters {
    admitted: Counter,
    shed: Counter,
    reaped: Counter,
    rejected: Counter,
    faulted: Counter,
    completed: Counter,
}

pub(crate) struct SessionSlot {
    pub(crate) stream: u64,
    pub(crate) link: Arc<ActivityTransport>,
    pub(crate) admitted_at: Instant,
    /// The session's flight recorder (disabled unless
    /// `cfg.flightrec_dir` is set). Shared with the session worker.
    pub(crate) recorder: FlightRecorder,
}

struct SessionWorker {
    done: Arc<AtomicBool>,
    /// Held to keep the session thread alive; dropping joins it.
    _worker: Worker,
}

/// Which lifecycle phase a session failure happened in — the teardown
/// path uses it to bill the right counter.
enum Phase {
    Admission,
    Serve,
}

pub(crate) struct Inner {
    pub(crate) cfg: ServerConfig,
    registry: ModelRegistry,
    templates: TemplateCache,
    hub: DealerHub,
    pub(crate) tracer: Tracer,
    pub(crate) metrics: MetricsRegistry,
    c: Counters,
    /// SLO latency accounting (admission / online / e2e histograms).
    pub(crate) slo: SloTracker,
    /// Fixed bucket template for `server.queue_wait_ms`.
    queue_wait_buckets: Histogram,
    /// Lock class `server.sessions` (leaf).
    pub(crate) sessions: Mutex<Vec<SessionSlot>>,
    /// Lock class `server.workers` (leaf).
    workers: Mutex<Vec<SessionWorker>>,
    /// Free 2PC serve slots (`max_sessions` at rest); bare atomic, no lock.
    run_slots: AtomicUsize,
    next_stream: AtomicU64,
    pub(crate) in_flight: AtomicU64,
    pub(crate) draining: AtomicBool,
    pub(crate) stopping: AtomicBool,
}

impl Inner {
    pub(crate) fn set_active_gauge(&self) {
        #[allow(clippy::cast_precision_loss)] // session counts are tiny
        let active = self.in_flight.load(Ordering::SeqCst) as f64;
        self.metrics.gauge_set("server.sessions_active", active);
        // Schema v4 alias with the conventional name; same reading.
        self.metrics.gauge_set("server.inflight", active);
    }

    /// Admission capacity: in-flight sessions beyond this are shed.
    pub(crate) fn capacity(&self) -> u64 {
        (self.cfg.max_sessions + self.cfg.queue_depth) as u64
    }

    /// A fresh flight recorder for one session (disabled unless dumps
    /// are configured, so un-opted servers pay one branch per record).
    fn new_recorder(&self) -> FlightRecorder {
        if self.cfg.flightrec_dir.is_some() {
            FlightRecorder::new(self.cfg.flightrec_capacity)
        } else {
            FlightRecorder::disabled()
        }
    }
}

/// A running multi-tenant two-party inference service.
///
/// Start with [`InferenceServer::start`], stop with
/// [`InferenceServer::drain`]; dropping without draining force-closes
/// everything (crash-style shutdown, still leak-free).
pub struct InferenceServer {
    inner: Arc<Inner>,
    accept: Option<Worker>,
    reaper: Option<Worker>,
    admin: Option<Worker>,
    stopped: bool,
}

impl InferenceServer {
    /// Boots the accept loop and reaper over `acceptor`.
    #[must_use]
    pub fn start(
        acceptor: Box<dyn Acceptor>,
        cfg: ServerConfig,
        registry: ModelRegistry,
        obs: ServerObs,
    ) -> InferenceServer {
        let c = Counters {
            admitted: obs.metrics.counter("server.sessions_admitted"),
            shed: obs.metrics.counter("server.sessions_shed"),
            reaped: obs.metrics.counter("server.sessions_reaped"),
            rejected: obs.metrics.counter("server.sessions_rejected"),
            faulted: obs.metrics.counter("server.sessions_faulted"),
            completed: obs.metrics.counter("server.sessions_completed"),
        };
        #[allow(clippy::cast_precision_loss)] // millisecond budgets are small
        let slo = SloTracker::new(&obs.metrics, cfg.slo_ms.map(|ms| ms as f64));
        let inner = Arc::new(Inner {
            run_slots: AtomicUsize::new(cfg.max_sessions),
            cfg,
            registry,
            templates: TemplateCache::new(),
            hub: DealerHub::new(),
            tracer: obs.tracer,
            metrics: obs.metrics,
            c,
            slo,
            queue_wait_buckets: Histogram::new(&SLO_BUCKET_BOUNDS_MS),
            sessions: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            next_stream: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
        });
        inner.set_active_gauge();
        inner.tracer.info(format!("server: accepting on {}", acceptor.descriptor()));

        let accept = Worker::spawn("aq2pnn-accept");
        {
            let inner = Arc::clone(&inner);
            let mut acceptor = acceptor;
            accept.submit(move || accept_loop(&inner, acceptor.as_mut()));
        }
        let reaper = Worker::spawn("aq2pnn-reap");
        {
            let inner = Arc::clone(&inner);
            reaper.submit(move || reap_loop(&inner));
        }
        InferenceServer {
            inner,
            accept: Some(accept),
            reaper: Some(reaper),
            admin: None,
            stopped: false,
        }
    }

    /// Boots the loopback-only admin listener on `addr` (e.g.
    /// `127.0.0.1:0`) serving `GET /metrics`, `/sessions` and `/healthz`
    /// (see DESIGN.md §14). Returns the resolved address.
    ///
    /// # Errors
    ///
    /// Fails when `addr` does not bind or is not a loopback address —
    /// the admin surface must never be reachable off-host.
    pub fn start_admin(&mut self, addr: &str) -> Result<std::net::SocketAddr, TransportError> {
        let (resolved, worker) = crate::admin::spawn_admin(&self.inner, addr)?;
        self.admin = Some(worker);
        Ok(resolved)
    }

    /// Current accounting snapshot.
    #[must_use]
    pub fn counters(&self) -> ServerCounters {
        ServerCounters {
            admitted: self.inner.c.admitted.get(),
            shed: self.inner.c.shed.get(),
            reaped: self.inner.c.reaped.get(),
            rejected: self.inner.c.rejected.get(),
            faulted: self.inner.c.faulted.get(),
            completed: self.inner.c.completed.get(),
            active: self.inner.in_flight.load(Ordering::SeqCst),
        }
    }

    /// Sessions currently in flight.
    #[must_use]
    pub fn active_sessions(&self) -> u64 {
        self.inner.in_flight.load(Ordering::SeqCst)
    }

    /// Dealer pools currently registered on the shared hub (one per
    /// dealer-enabled session; the chaos soak asserts this returns to 0).
    #[must_use]
    pub fn dealer_pools(&self) -> usize {
        self.inner.hub.member_pools()
    }

    /// Graceful shutdown: shed new admissions, wait up to
    /// `cfg.drain_timeout` for in-flight sessions, force-close stragglers,
    /// then stop the accept loop and reaper and join every worker.
    ///
    /// Records `server.drain_ms` and returns what happened; idempotent
    /// (a second call reports an immediate clean drain).
    pub fn drain(&mut self) -> DrainReport {
        let started = Instant::now();
        self.inner.draining.store(true, Ordering::SeqCst);
        let deadline = started + self.inner.cfg.drain_timeout;
        while self.inner.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut forced = 0u64;
        let clean = self.inner.in_flight.load(Ordering::SeqCst) == 0;
        if !clean {
            let links: Vec<Arc<ActivityTransport>> = {
                let sessions = self.inner.sessions.lock();
                sessions.iter().map(|s| Arc::clone(&s.link)).collect()
            };
            for link in links {
                if !link.was_closed() {
                    link.close();
                    forced += 1;
                }
            }
            // Bounded grace for the unwinding workers; they now only see
            // Disconnected, so this converges quickly.
            let grace = Instant::now() + Duration::from_secs(5);
            while self.inner.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < grace {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.join_loops();
        let drain_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
        #[allow(clippy::cast_precision_loss)] // millisecond counts are small
        self.inner.metrics.gauge_set("server.drain_ms", drain_ms as f64);
        self.inner.tracer.info(format!(
            "server: drained in {drain_ms} ms ({})",
            if clean { "clean".to_owned() } else { format!("forced {forced} session(s)") }
        ));
        self.stopped = true;
        DrainReport { clean, forced, drain_ms }
    }

    /// Stops the accept loop and reaper and joins every session worker.
    fn join_loops(&mut self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        drop(self.accept.take());
        drop(self.reaper.take());
        drop(self.admin.take());
        // `mem::take`, not `Vec::drain`: the concurrency lint resolves
        // callees by name and would conflate it with [`Self::drain`].
        let leftover: Vec<SessionWorker> = std::mem::take(&mut *self.inner.workers.lock());
        drop(leftover); // joins outside the `server.workers` guard
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        if self.stopped {
            return;
        }
        // Crash-style shutdown: no grace, but still no leaks — close every
        // link so workers unwind, then join them.
        self.inner.draining.store(true, Ordering::SeqCst);
        let links: Vec<Arc<ActivityTransport>> = {
            let sessions = self.inner.sessions.lock();
            sessions.iter().map(|s| Arc::clone(&s.link)).collect()
        };
        for link in links {
            link.close();
        }
        self.join_loops();
    }
}

fn accept_loop(inner: &Arc<Inner>, acceptor: &mut dyn Acceptor) {
    while !inner.stopping.load(Ordering::SeqCst) {
        match acceptor.accept(Duration::from_millis(50)) {
            Ok(link) => admit(inner, link),
            Err(TransportError::Timeout) => {}
            Err(e) => {
                inner.tracer.info(format!("server: accept loop exiting: {e}"));
                return;
            }
        }
    }
}

/// Admission decision for one fresh connection. Overload and drain are
/// answered *immediately* with a typed `Shed` frame — the client never
/// waits out a timeout to learn it was declined.
fn admit(inner: &Arc<Inner>, link: Arc<dyn Transport>) {
    let over = inner.in_flight.load(Ordering::SeqCst) >= inner.capacity();
    if over || inner.draining.load(Ordering::SeqCst) {
        let _ = link.send(Frame::control(FrameKind::Shed, 0, 0).encode().into());
        link.shutdown();
        inner.c.shed.inc();
        return;
    }
    let stream = inner.next_stream.fetch_add(1, Ordering::SeqCst) + 1;
    let activity = Arc::new(ActivityTransport::new(link));
    let admitted_at = Instant::now();
    let recorder = inner.new_recorder();
    recorder.event("admitted", "lifecycle", &[("stream", ArgValue::U64(stream))]);
    inner.in_flight.fetch_add(1, Ordering::SeqCst);
    inner.set_active_gauge();
    inner.c.admitted.inc();
    {
        let mut sessions = inner.sessions.lock();
        sessions.push(SessionSlot {
            stream,
            link: Arc::clone(&activity),
            admitted_at,
            recorder: recorder.clone(),
        });
    }
    let worker = Worker::spawn("aq2pnn-session");
    let done = Arc::new(AtomicBool::new(false));
    {
        let inner = Arc::clone(inner);
        let done = Arc::clone(&done);
        worker.submit(move || {
            session_job(&inner, stream, &activity, &recorder, admitted_at);
            done.store(true, Ordering::SeqCst);
        });
    }
    let mut workers = inner.workers.lock();
    workers.push(SessionWorker { done, _worker: worker });
}

/// One session end to end, plus its teardown bookkeeping. Runs on the
/// session's dedicated worker; every exit path (success, client fault,
/// reap, drain) lands in the same accounting.
fn session_job(
    inner: &Arc<Inner>,
    stream: u64,
    link: &Arc<ActivityTransport>,
    recorder: &FlightRecorder,
    admitted_at: Instant,
) {
    let outcome = serve_session(inner, stream, link, recorder, admitted_at);
    match outcome {
        Ok(images) => {
            inner.c.completed.inc();
            #[allow(clippy::cast_precision_loss)] // ms counts are small
            inner.slo.observe(SloClass::EndToEnd, admitted_at.elapsed().as_secs_f64() * 1e3);
            inner.tracer.info(format!("server: session {stream} completed ({images} image(s))"));
            // Clean completion: the flight recorder is dropped, not dumped.
        }
        Err((phase, err)) => {
            let outcome = if link.was_closed() {
                // The reaper (or drain) tore this link down; the error the
                // worker observed is just the echo of that teardown.
                inner.c.reaped.inc();
                inner.tracer.info(format!("server: session {stream} reaped: {err}"));
                "reaped"
            } else {
                let name = match phase {
                    Phase::Admission => {
                        inner.c.rejected.inc();
                        "rejected"
                    }
                    Phase::Serve => {
                        inner.c.faulted.inc();
                        "faulted"
                    }
                };
                inner.tracer.info(format!("server: session {stream} failed: {err}"));
                name
            };
            dump_flightrec(inner, stream, recorder, outcome, &err);
        }
    }
    link.shutdown();
    {
        let mut sessions = inner.sessions.lock();
        sessions.retain(|s| s.stream != stream);
    }
    inner.in_flight.fetch_sub(1, Ordering::SeqCst);
    inner.set_active_gauge();
}

/// Writes the session's flight-recorder ring as
/// `<flightrec_dir>/flightrec-<stream>.json` (Chrome trace format). The
/// terminal lifecycle event (`reaped` / `rejected` / `faulted`, with the
/// public error text as its reason) is stamped first, so the dump always
/// covers the session's final moment. Runs guard-free on the session
/// worker; a failed write is logged, never fatal.
fn dump_flightrec(
    inner: &Inner,
    stream: u64,
    recorder: &FlightRecorder,
    outcome: &'static str,
    reason: &str,
) {
    let Some(dir) = &inner.cfg.flightrec_dir else { return };
    if !recorder.is_enabled() {
        return;
    }
    recorder.event(outcome, "lifecycle", &[("reason", ArgValue::Str(reason.to_owned()))]);
    let doc = recorder.to_chrome_json(stream);
    let path = dir.join(format!("flightrec-{stream}.json"));
    let write =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.to_string_pretty()));
    match write {
        Ok(()) => inner
            .tracer
            .info(format!("server: session {stream} flight recorder dumped to {}", path.display())),
        Err(e) => {
            inner.tracer.info(format!("server: session {stream} flight recorder dump failed: {e}"));
        }
    }
}

/// RAII serve-slot permit: released on every exit path.
struct RunPermit<'a>(&'a AtomicUsize);

impl Drop for RunPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Waits for a free serve slot by bounded polling (the queue path).
/// Returns `None` once the link was closed (reaper got there first) or
/// `deadline` passed.
fn acquire_slot<'a>(
    slots: &'a AtomicUsize,
    link: &ActivityTransport,
    deadline: Instant,
) -> Option<RunPermit<'a>> {
    loop {
        let free = slots.load(Ordering::SeqCst);
        if free > 0
            && slots.compare_exchange(free, free - 1, Ordering::SeqCst, Ordering::SeqCst).is_ok()
        {
            return Some(RunPermit(slots));
        }
        if link.was_closed() || Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[allow(clippy::too_many_lines)] // one linear lifecycle, clearer unsplit
fn serve_session(
    inner: &Arc<Inner>,
    stream: u64,
    link: &Arc<ActivityTransport>,
    rec: &FlightRecorder,
    admitted_at: Instant,
) -> Result<usize, (Phase, String)> {
    let cfg = &inner.cfg;
    let adm = |e: TransportError| (Phase::Admission, e.to_string());

    // 1. Admission handshake on the raw link: expect the client's Hello,
    //    answer with the assigned stream ID. Garbage here is a typed
    //    rejection, not a crash or a hang.
    let raw = link.recv(Some(cfg.admission_timeout)).map_err(adm)?;
    let hello = Frame::decode(&raw).map_err(adm)?;
    if hello.kind != FrameKind::Hello {
        return Err((Phase::Admission, format!("expected Hello, got {:?}", hello.kind)));
    }
    link.send(Frame::control(FrameKind::Hello, stream, 0).encode().into()).map_err(adm)?;
    rec.event("hello", "lifecycle", &[]);

    // 2. Session (stream-stamped, sequence-checked frames) + request header.
    let session = Arc::new(Session::with_stream(Arc::clone(link) as Arc<dyn Transport>, stream));
    let req_bytes = session.recv(Some(cfg.admission_timeout)).map_err(adm)?;
    let req = InferenceRequest::decode(&req_bytes).map_err(adm)?;
    let verdict = req.validate().and_then(|()| {
        inner
            .registry
            .get(&req.model)
            .map(|_| ())
            .ok_or_else(|| format!("unknown model {:?}", req.model))
    });
    if let Err(reason) = &verdict {
        let _ = session.send(encode_reply(&Err(reason.clone())).into());
        return Err((Phase::Admission, format!("rejected request: {reason}")));
    }
    let model = inner.registry.get(&req.model).expect("validated above");
    rec.event(
        "request",
        "lifecycle",
        &[
            ("model", ArgValue::Str(req.model.clone())),
            ("count", ArgValue::U64(u64::from(req.count))),
            ("batch", ArgValue::U64(u64::from(req.batch))),
            ("q1_bits", ArgValue::U64(u64::from(req.q1_bits))),
        ],
    );

    // 3. Serve slot: parked here while `max_sessions` peers are online
    //    (the admission queue). The reaper still covers us via deadlines.
    let slot_deadline = Instant::now() + cfg.session_deadline;
    let queue_t0 = rec.now_ns();
    let queued_at = Instant::now();
    let Some(_permit) = acquire_slot(&inner.run_slots, link, slot_deadline) else {
        let reason = "queued past deadline".to_owned();
        let _ = session.send(encode_reply(&Err(reason.clone())).into());
        return Err((Phase::Serve, reason));
    };
    let queue_wait_ms = queued_at.elapsed().as_secs_f64() * 1e3;
    inner.metrics.observe_with("server.queue_wait_ms", &inner.queue_wait_buckets, queue_wait_ms);
    // Admission-wait SLO: connection admitted → run slot held.
    inner.slo.observe(SloClass::Admission, admitted_at.elapsed().as_secs_f64() * 1e3);
    rec.span("queue_wait", "slo", queue_t0, &[]);
    session.send(encode_reply(&Ok(())).into()).map_err(|e| (Phase::Serve, e.to_string()))?;

    // 4. The 2PC session proper. The prepared template is shared across
    //    sessions per (model, ℓ-profile); only `bind` talks to this peer.
    let run = |e: aq2pnn::ProtocolError| (Phase::Serve, e.to_string());
    let pcfg = ProtocolConfig::paper(req.q1_bits);
    let template = inner
        .templates
        .get_or_build(&req.model, PartyId::ModelProvider, &pcfg, &model)
        .map_err(run)?;
    let ep =
        Endpoint::over_transport(Arc::clone(&session) as Arc<dyn Transport>, Some(cfg.io_deadline));
    let mut ctx = PartyContext::new(PartyId::ModelProvider, ep, pcfg, None);
    ctx.set_obs(inner.tracer.clone(), inner.metrics.clone());
    let mut prepared = template.bind(&mut ctx).map_err(run)?;
    let _pool = cfg.dealer.as_ref().map(|d| prepared.spawn_dealer_on(&ctx, *d, &inner.hub));

    let total = req.count as usize;
    let batch = req.batch as usize;
    let mut served = 0usize;
    while served < total {
        let b = batch.min(total - served);
        let pass_t0 = rec.now_ns();
        let pass_started = Instant::now();
        prepared.run_batch(&mut ctx, BatchInput::Provider { batch: b }).map_err(run)?;
        inner.slo.observe(SloClass::Online, pass_started.elapsed().as_secs_f64() * 1e3);
        rec.span("online_pass", "slo", pass_t0, &[("batch", ArgValue::U64(b as u64))]);
        served += b;
    }
    Ok(served)
}

/// Reaper: tears down sessions past their deadline or idle bound and
/// sweeps finished session workers. Teardown marks the link closed first
/// so the unwinding worker bills the failure to the reaper, not the
/// client.
fn reap_loop(inner: &Arc<Inner>) {
    while !inner.stopping.load(Ordering::SeqCst) {
        std::thread::sleep(inner.cfg.reap_interval);
        let now = Instant::now();
        let victims: Vec<(u64, Arc<ActivityTransport>, FlightRecorder, &'static str)> = {
            let sessions = inner.sessions.lock();
            sessions
                .iter()
                .filter(|s| {
                    !s.link.was_closed()
                        && (now.duration_since(s.admitted_at) > inner.cfg.session_deadline
                            || s.link.idle_for() > inner.cfg.idle_timeout)
                })
                .map(|s| {
                    let why = if now.duration_since(s.admitted_at) > inner.cfg.session_deadline {
                        "session_deadline"
                    } else {
                        "idle_timeout"
                    };
                    (s.stream, Arc::clone(&s.link), s.recorder.clone(), why)
                })
                .collect()
        };
        for (stream, link, recorder, why) in victims {
            inner.tracer.info(format!("server: reaping session {stream}"));
            recorder.event("reaping", "lifecycle", &[("why", ArgValue::Str(why.to_owned()))]);
            link.close();
        }
        let finished: Vec<SessionWorker> = {
            let mut ws = inner.workers.lock();
            // `mem::take` + partition, not `Vec::drain`: the concurrency
            // lint resolves callees by name and would conflate the latter
            // with [`InferenceServer::drain`].
            let all = std::mem::take(&mut *ws);
            let (fin, keep): (Vec<_>, Vec<_>) =
                all.into_iter().partition(|w| w.done.load(Ordering::SeqCst));
            *ws = keep;
            fin
        };
        drop(finished); // joins outside the `server.workers` guard
    }
}
