//! The workloads and the closed-loop load generator.
//!
//! Every client thread sends its next session only after the previous one
//! returned logits: the callers modelled here wait for their reply, so a
//! slower system receives less load.

use crate::models::{Fixture, LENET5, VGGTAIL};
use crate::provider::{signal_pid, Provider};
use crate::stats::{Metric, Summary};
use aq2pnn::sim::{run_two_party_service, PartyObs};
use aq2pnn::ProtocolConfig;
use aq2pnn_obs::Tracer;
use aq2pnn_server::{run_client, ClientConfig, ClientError, ClientRun};
use aq2pnn_transport::{duplex, TcpConfig, TcpTransport, Transport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One named traffic shape.
pub struct Workload {
    pub name: &'static str,
    pub model: &'static str,
    pub batch: usize,
    pub clients: usize,
    pub images: usize,
}

/// The five workloads of `BENCHMARK.json`; the reason for each is recorded
/// there and in `benchmark/README.md`.
pub const WORKLOADS: [Workload; 5] = [
    Workload { name: "lenet5.b1.c1", model: LENET5, batch: 1, clients: 1, images: 8 },
    Workload { name: "lenet5.b8.c1", model: LENET5, batch: 8, clients: 1, images: 16 },
    Workload { name: "lenet5.b1.c2", model: LENET5, batch: 1, clients: 2, images: 8 },
    Workload { name: "lenet5.short.c1", model: LENET5, batch: 1, clients: 1, images: 1 },
    Workload { name: "vggtail.b1.c1", model: VGGTAIL, batch: 1, clients: 1, images: 8 },
];

/// Every workload runs the paper's 16-bit activation profile.
pub const Q1_BITS: u32 = 16;

/// How many times a run sets a provider up; `setup_s` is their median.
const SETUPS: usize = 3;

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn client_config(&self) -> ClientConfig {
        ClientConfig {
            model: self.model.into(),
            q1_bits: Q1_BITS,
            batch: self.batch,
            // A wedged provider becomes a typed failure well inside the
            // run's time limit.
            io_deadline: Duration::from_secs(20),
            ..ClientConfig::default()
        }
    }
}

/// One workload under one seed: what a session sends and must get back.
pub struct Case<'a> {
    pub w: &'static Workload,
    pub fixture: &'a Fixture,
    pub images: Vec<&'a [f32]>,
    /// Reference logits: both parties in this process over an in-memory
    /// link, same protocol configuration. The protocol's randomness derives
    /// from the configuration's setup seed alone, so every session that
    /// sends these images must return exactly these logits.
    pub reference: Vec<Vec<i64>>,
}

impl<'a> Case<'a> {
    pub fn new(w: &'static Workload, fixture: &'a Fixture, seed: u64) -> Result<Self, String> {
        let images = fixture.images(seed, w.images);
        let (e0, e1) = duplex();
        let run = run_two_party_service(
            e0,
            e1,
            &fixture.model,
            &ProtocolConfig::paper(Q1_BITS),
            &images,
            w.batch,
            None,
            PartyObs::default(),
            PartyObs::default(),
        )
        .map_err(|e| format!("reference run: {e}"))?;
        Ok(Case { w, fixture, images, reference: run.logits })
    }

    /// Share of images whose secure argmax equals the plaintext quantized
    /// model's (local truncation may move a logit by 1).
    pub fn argmax_match_share(&self) -> f64 {
        fn argmax(v: &[i64]) -> Option<usize> {
            v.iter().enumerate().max_by_key(|&(i, &x)| (x, std::cmp::Reverse(i))).map(|(i, _)| i)
        }
        let hits = self
            .images
            .iter()
            .zip(&self.reference)
            .filter(|(img, secure)| {
                self.fixture.model.forward(img).is_ok_and(|plain| argmax(&plain) == argmax(secure))
            })
            .count();
        hits as f64 / self.images.len() as f64
    }
}

/// One session as the driver saw it.
pub struct SessionSample {
    /// Start and end, relative to the load's common start.
    started: Duration,
    ended: Duration,
    /// `run_client`'s error; `None` when it returned (the provider then
    /// counts the session completed).
    error: Option<String>,
    /// It returned, and the logits equal the reference.
    verified: bool,
    online_ns: u64,
    payload_bytes: u64,
}

/// Connects and runs one session, recording driver spans around both calls
/// when `tracer` is enabled.
pub fn one_session(addr: &str, case: &Case, tracer: &Tracer) -> Result<ClientRun, ClientError> {
    let outer = tracer.begin("session", "driver");
    let span = tracer.begin("connect", "driver");
    let link = TcpTransport::connect(addr, TcpConfig::default());
    tracer.end(span);
    let result = link.map_err(ClientError::from).and_then(|link| {
        let span = tracer.begin("run_client", "driver");
        let run = run_client(
            Arc::new(link) as Arc<dyn Transport>,
            &case.w.client_config(),
            &case.fixture.model,
            &case.images,
        );
        tracer.end(span);
        run
    });
    let stream = result.as_ref().map_or(0, |r| r.stream);
    tracer.end_with(outer, &[("stream", aq2pnn_obs::ArgValue::U64(stream))]);
    result
}

/// Sessions of all clients over one warm-up + window, in completion order
/// per client.
pub struct LoadRun {
    clients: Vec<Vec<SessionSample>>,
    warmup: Duration,
    /// The watchdog had to kill the provider.
    hung: bool,
}

/// Drives `w.clients` closed-loop clients against `provider` for `warmup`
/// (discarded) plus `window`. A watchdog kills the provider when the load
/// overruns by 30 s, which fails the pending sessions instead of hanging
/// the run.
pub fn run_load(
    provider: &Provider,
    case: &Case,
    warmup: Duration,
    window: Duration,
    tracer: &Tracer,
) -> LoadRun {
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let hung = AtomicBool::new(false);
    let pid = provider.pid();
    let addr = provider.addr.as_str();
    let start = Instant::now();
    let clients = std::thread::scope(|scope| {
        let hung = &hung;
        scope.spawn(move || {
            let budget = warmup + window + Duration::from_secs(30);
            if done_rx.recv_timeout(budget).is_err() {
                hung.store(true, Ordering::SeqCst);
                let _ = signal_pid(pid, "KILL");
            }
        });
        let handles: Vec<_> = (0..case.w.clients)
            .map(|_| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut streak = 0usize;
                    while start.elapsed() < warmup + window && streak < 20 {
                        let started = start.elapsed();
                        let result = one_session(addr, case, tracer);
                        let ended = start.elapsed();
                        let run = result.as_ref().ok();
                        let sample = SessionSample {
                            started,
                            ended,
                            error: result.as_ref().err().map(ToString::to_string),
                            verified: run.is_some_and(|r| r.logits == case.reference),
                            online_ns: run.map_or(0, |r| r.online_ns),
                            payload_bytes: run.map_or(0, |r| r.payload_bytes),
                        };
                        if sample.verified {
                            streak = 0;
                        } else {
                            // Twenty failures in a row: the provider is gone
                            // or wrong, stop hammering it.
                            streak += 1;
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        samples.push(sample);
                    }
                    samples
                })
            })
            .collect();
        let clients: Vec<Vec<SessionSample>> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        let _ = done_tx.send(());
        clients
    });
    LoadRun { clients, warmup, hung: hung.load(Ordering::SeqCst) }
}

impl LoadRun {
    /// Sessions that started after the warm-up.
    fn timed(&self) -> impl Iterator<Item = &SessionSample> {
        self.clients.iter().flatten().filter(|s| s.started >= self.warmup)
    }

    /// Stops `provider` and settles the run's account: sessions attempted
    /// and failed in the timed window, and every reason the run is not
    /// correct. `earlier` counts the sessions the provider served before
    /// this load (its set-up session).
    pub fn conclude(
        &self,
        provider: Provider,
        earlier: u64,
        problems: &mut Vec<String>,
    ) -> Result<(u64, u64), String> {
        let sessions = || self.clients.iter().flatten();
        if self.hung {
            problems.push("watchdog killed a hung provider".into());
        } else {
            let returned = sessions().filter(|s| s.error.is_none()).count() as u64;
            check_exit(provider, earlier + returned, problems)?;
        }
        if let Some(e) = sessions().find_map(|s| s.error.as_deref()) {
            problems.push(format!("session error: {e}"));
        }
        let attempted = self.timed().count() as u64;
        let failed = self.timed().filter(|s| !s.verified).count() as u64;
        if attempted == 0 || failed > 0 {
            problems.push(format!("{failed} of {attempted} timed sessions failed"));
        }
        Ok((attempted, failed))
    }

    /// The per-session end-to-end metrics of the timed window.
    pub fn metrics(&self, w: &Workload) -> Vec<Metric> {
        let images = w.images as f64;
        let ok: Vec<&SessionSample> = self.timed().filter(|s| s.verified).collect();
        // Closed loop: a client's timed sessions are back to back, so its
        // rate is its verified images over the span they cover. Clients
        // run concurrently, so their rates add.
        let images_per_s: f64 = self
            .clients
            .iter()
            .map(|c| {
                let timed: Vec<&SessionSample> =
                    c.iter().filter(|s| s.started >= self.warmup).collect();
                let (Some(first), Some(last)) = (timed.first(), timed.last()) else { return 0.0 };
                let verified = timed.iter().filter(|s| s.verified).count() as f64;
                verified * images / (last.ended - first.started).as_secs_f64()
            })
            .sum();
        let online: Vec<f64> = ok.iter().map(|s| s.online_ns as f64 / 1e6 / images).collect();
        let session: Vec<f64> =
            ok.iter().map(|s| (s.ended - s.started).as_secs_f64() * 1e3).collect();
        let bytes: Vec<f64> = ok.iter().map(|s| s.payload_bytes as f64 / images).collect();
        // The value is the rate over the window; its quartiles are those of
        // the rate each single session ran at, so `compare` can tell a
        // steady window from a scattered one.
        let rates: Vec<f64> =
            session.iter().map(|ms| self.clients.len() as f64 * images * 1e3 / ms).collect();
        let throughput = Summary { median: images_per_s, ..Summary::of(&rates) };
        vec![
            Metric::new("images_per_s", "img/s", throughput),
            Metric::new("online_ms_per_image", "ms", Summary::of(&online)),
            Metric::new("session_ms", "ms", Summary::of(&session)),
            Metric::new("bytes_per_image", "B", Summary::of(&bytes)),
        ]
    }

    /// `session_ms` minus the session's online time: admission, request,
    /// prepare and flush (a per-layer metric of the traced run).
    pub fn session_overhead_ms(&self) -> Summary {
        let v: Vec<f64> = self
            .timed()
            .filter(|s| s.verified)
            .map(|s| (s.ended - s.started).as_secs_f64() * 1e3 - s.online_ns as f64 / 1e6)
            .collect();
        Summary::of(&v)
    }
}

/// Spawns a provider and runs the first session against it. Returns the
/// provider and the seconds from spawn to verified logits.
pub fn set_up(case: &Case, admin: bool, tracer: &Tracer) -> Result<(Provider, f64), String> {
    let t0 = Instant::now();
    let span = tracer.begin("provider_spawn", "driver");
    let provider = Provider::spawn(case.w.model, admin, case.w.name);
    tracer.end(span);
    let provider = provider?;
    let run =
        one_session(&provider.addr, case, tracer).map_err(|e| format!("first session: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    if run.logits != case.reference {
        return Err("first session returned wrong logits".into());
    }
    Ok((provider, setup_s))
}

/// What a run of one workload, untraced or traced, produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons the run is not correct (empty: correct).
    pub problems: Vec<String>,
}

/// The end-to-end measurement: `SETUPS` provider set-ups (the last one
/// keeps serving), warm-up, timed window, SIGTERM, and the cross-check of
/// our counts against the provider's drain line.
///
/// `provider_rss_mib` is the provider's `VmHWM` once its first session
/// returned: model, template, prepare and one session's buffers. The peak
/// after a whole window is not an end-to-end metric: it settles on one of
/// two allocator plateaus a third apart from run to run (the traced run
/// reports it as `server.rss_peak_mib`).
pub fn end_to_end(case: &Case, warmup: Duration, window: Duration) -> Result<Outcome, String> {
    let tracer = Tracer::disabled();
    let mut problems = Vec::new();
    let (mut setups, mut rss) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    let mut serving = None;
    for _ in 0..SETUPS {
        if let Some(previous) = serving.take() {
            check_exit(previous, 1, &mut problems)?;
        }
        let (provider, setup_s) = set_up(case, false, &tracer)?;
        setups.push(setup_s);
        rss.push(provider.vm_hwm_mib()?);
        serving = Some(provider);
    }
    let provider = serving.expect("SETUPS > 0");
    let load = run_load(&provider, case, warmup, window, &tracer);
    let (attempted, failed) = load.conclude(provider, 1, &mut problems)?;
    let mut metrics = load.metrics(case.w);
    metrics.push(Metric::new("provider_rss_mib", "MiB", Summary::of(&rss)));
    metrics.push(Metric::new("setup_s", "s", Summary::of(&setups)));
    Ok(Outcome { metrics, attempted, failed, problems })
}

/// Stops `provider` and checks its own account of the run: exit code 0,
/// a clean drain, nothing shed or reaped, and `completed` equal to the
/// sessions the driver saw return.
fn check_exit(provider: Provider, returned: u64, problems: &mut Vec<String>) -> Result<(), String> {
    let exit = provider.stop()?;
    if exit.code != Some(0) || !exit.clean {
        problems.push(format!(
            "provider exit {:?}, clean={}: {}",
            exit.code, exit.clean, exit.stderr_tail
        ));
    }
    if exit.completed != returned || exit.admitted != returned || exit.shed + exit.reaped != 0 {
        problems.push(format!(
            "provider counted admitted={} completed={} shed={} reaped={}, driver saw {returned} \
             sessions return",
            exit.admitted, exit.completed, exit.shed, exit.reaped
        ));
    }
    Ok(())
}
