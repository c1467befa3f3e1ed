//! Outside-in probes of single layers, by the repository's module names.
//!
//! Each probe generates its input from the seed, warms once, asserts its
//! output against the crate's reference or round trip, then times `REPS`
//! repetitions and reports their median with quartiles. `README.md` records
//! which end-to-end metric each probe is expected to move, on which
//! workload.

use crate::load::Q1_BITS;
use crate::stats::{Metric, Summary};
use aq2pnn::abrelu::secure_sign;
use aq2pnn::gemm::secure_matmul;
use aq2pnn::sim::run_pair;
use aq2pnn::{ProtocolConfig, ReluMode};
use aq2pnn_ot::{recv_batch, send_batch_flat, OtChoice};
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_server::{InferenceServer, ModelRegistry, ServerConfig, ServerObs, TcpAcceptor};
use aq2pnn_sharing::a2b::group_widths;
use aq2pnn_sharing::beaver::{ring_matmul, ring_matmul_reference};
use aq2pnn_sharing::dealer::TripleDealer;
use aq2pnn_sharing::{AShare, PartyId};
use aq2pnn_transport::{
    pack_bits, pack_bits_reference, unpack_bits, Bytes, Frame, FrameKind, TcpConfig, TcpTransport,
    Transport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed repetitions per probe.
const REPS: usize = 15;

/// GEMM shapes `[m,k] ⊗ [k,n]` as im2col lowers them: LeNet5 conv2, and
/// one `vggtail` conv at batch 1 and batch 8.
const GEMM_SHAPES: [(&str, usize, usize, usize); 3] = [
    ("lenet5_conv2", 100, 150, 16),
    ("vggtail_conv", 4, 2304, 256),
    ("vggtail_conv_b8", 32, 2304, 256),
];

/// LeNet5's five linear layers as GEMMs: one inference's worth of triples.
const LENET5_GEMMS: [(usize, usize, usize); 5] =
    [(784, 25, 6), (100, 150, 16), (1, 400, 120), (1, 120, 84), (1, 84, 10)];

/// Activation counts of LeNet5's first ABReLU at batch 1 and batch 8.
const SIGN_SIZES: [usize; 2] = [4704, 37632];

/// Runs `f` once unmeasured, then `REPS` times; nanoseconds per call. The
/// first failing call ends the series.
fn time_ns<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<Vec<f64>, String> {
    black_box(f()?);
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f()?);
            Ok(t.elapsed().as_nanos() as f64)
        })
        .collect()
}

fn scaled(name: String, unit: &'static str, ns: &[f64], per: f64) -> Metric {
    let v: Vec<f64> = ns.iter().map(|x| x / per).collect();
    Metric::new(name, unit, Summary::of(&v))
}

/// `ring.matmul_ns_per_mac.<shape>`: the plaintext ring GEMM on Q2.
fn ring_matmul_probe(rng: &mut StdRng, out: &mut Vec<Metric>) -> Result<(), String> {
    let ring = ProtocolConfig::paper(Q1_BITS).q2();
    for (name, m, k, n) in GEMM_SHAPES {
        let a = RingTensor::random(ring, vec![m, k], rng);
        let b = RingTensor::random(ring, vec![k, n], rng);
        let mul = |a: &RingTensor, b: &RingTensor| ring_matmul(a, b).map_err(|e| e.to_string());
        if mul(&a, &b)? != ring_matmul_reference(&a, &b).map_err(|e| e.to_string())? {
            return Err(format!("ring_matmul disagrees with its reference at {name}"));
        }
        let ns = time_ns(|| mul(black_box(&a), black_box(&b)))?;
        out.push(scaled(format!("ring.matmul_ns_per_mac.{name}"), "ns", &ns, (m * k * n) as f64));
    }
    Ok(())
}

/// `sharing.secure_matmul_ms.<shape>`: Beaver AS-GEMM between two parties
/// over an in-memory link, triple generation included (the shipped provider
/// generates triples inline).
fn secure_matmul_probe(rng: &mut StdRng, out: &mut Vec<Metric>) -> Result<(), String> {
    let cfg = ProtocolConfig::paper(Q1_BITS);
    let ring = cfg.q2();
    for (name, m, k, n) in GEMM_SHAPES {
        let x = RingTensor::random(ring, vec![m, k], rng);
        let w = RingTensor::random(ring, vec![k, n], rng);
        let want = ring_matmul(&x, &w).map_err(|e| e.to_string())?;
        // Party 0 holds the operands, party 1 zero shares.
        let zero = |shape: Vec<usize>| RingTensor::zeros(ring, shape);
        let shares = [(x.clone(), w.clone()), (zero(vec![m, k]), zero(vec![k, n]))]
            .map(|(x, w)| (AShare::from_tensor(x), AShare::from_tensor(w)));
        let (r0, r1) = run_pair(&cfg, move |ctx| {
            let (x, w) = &shares[usize::from(ctx.id == PartyId::ModelProvider)];
            let product = secure_matmul(ctx, x, w).map_err(|e| e.to_string())?;
            let ns = time_ns(|| secure_matmul(ctx, x, w).map_err(|e| e.to_string()))?;
            Ok::<_, String>((product, ns))
        });
        let ((p0, ns), (p1, _)) = (r0?, r1?);
        if p0.as_tensor().add(p1.as_tensor()).map_err(|e| e.to_string())? != want {
            return Err(format!("secure_matmul shares do not open to the product at {name}"));
        }
        out.push(scaled(format!("sharing.secure_matmul_ms.{name}"), "ms", &ns, 1e6));
    }
    Ok(())
}

/// `sharing.triple_gen_ms`: one LeNet5 inference's matrix triples.
fn triple_gen_probe(seed: u64, out: &mut Vec<Metric>) -> Result<(), String> {
    let ring = ProtocolConfig::paper(Q1_BITS).q2();
    let mut dealer = TripleDealer::from_seed(seed);
    let (t0, t1) = dealer.matmul_triple(ring, 100, 150, 16);
    let open = |a: &RingTensor, b: &RingTensor| a.add(b).map_err(|e| e.to_string());
    let z = ring_matmul(&open(&t0.a, &t1.a)?, &open(&t0.b, &t1.b)?).map_err(|e| e.to_string())?;
    if z != open(&t0.z, &t1.z)? {
        return Err("dealer triple does not satisfy Z = A ⊗ B".into());
    }
    let ns = time_ns(|| {
        for (m, k, n) in LENET5_GEMMS {
            black_box(dealer.matmul_triple(ring, m, k, n));
        }
        Ok(())
    })?;
    out.push(scaled("sharing.triple_gen_ms".into(), "ms", &ns, 1e6));
    Ok(())
}

/// `ot.flow_ns_per_elem.n<N>`: the OT batch `secure_sign` issues for `N`
/// activations (one 1-of-2^w item per bit group), sender to receiver.
fn ot_flow_probe(rng: &mut StdRng, out: &mut Vec<Metric>) -> Result<(), String> {
    let cfg = ProtocolConfig::paper(Q1_BITS);
    let widths = group_widths(Q1_BITS);
    for n in SIGN_SIZES {
        let arity: Vec<usize> = (0..n).flat_map(|_| widths.iter().map(|w| 1usize << w)).collect();
        let msgs: Vec<u64> = (0..arity.iter().sum()).map(|_| rng.gen_range(0..4u64)).collect();
        let choices: Vec<OtChoice> =
            arity.iter().map(|&a| OtChoice { choice: rng.gen_range(0..a), n: a }).collect();
        let mut want = Vec::with_capacity(choices.len());
        let mut offset = 0;
        for c in &choices {
            want.push(msgs[offset + c.choice]);
            offset += c.n;
        }
        let (sender, receiver) = run_pair(&cfg, move |ctx| {
            let mut got = Vec::new();
            let mut once = |ctx: &mut aq2pnn::PartyContext| match ctx.id {
                PartyId::User => send_batch_flat(
                    &ctx.ep,
                    &ctx.group,
                    &ctx.labels,
                    &msgs,
                    &arity,
                    2,
                    &mut ctx.rng,
                ),
                PartyId::ModelProvider => {
                    recv_batch(&ctx.ep, &ctx.group, &ctx.labels, &choices, 2, &mut ctx.rng)
                        .map(|v| got = v)
                }
            };
            let ns = time_ns(|| once(ctx).map_err(|e| e.to_string()))?;
            Ok::<_, String>((got, ns))
        });
        let (sender, receiver) = (sender?, receiver?);
        if receiver.0 != want {
            return Err(format!("OT receiver did not learn its chosen messages at n={n}"));
        }
        out.push(scaled(format!("ot.flow_ns_per_elem.n{n}"), "ns", &sender.1, n as f64));
    }
    Ok(())
}

/// One timed `secure_sign` series over `n` shared values; checks the flags
/// against the plaintext sign.
fn sign_series(rng: &mut StdRng, n: usize) -> Result<Vec<f64>, String> {
    let cfg = ProtocolConfig::paper(Q1_BITS);
    let ring = cfg.q1();
    let s0: Vec<u64> = (0..n).map(|_| ring.sample(rng)).collect();
    let s1: Vec<u64> = (0..n).map(|_| ring.sample(rng)).collect();
    let want: Vec<u8> = s0
        .iter()
        .zip(&s1)
        .map(|(&a, &b)| u8::from(ring.decode_signed(ring.add(a, b)) > 0))
        .collect();
    let (user, _) = run_pair(&cfg, move |ctx| {
        let raw = if ctx.id == PartyId::User { s0.clone() } else { s1.clone() };
        let share = AShare::from_tensor(
            RingTensor::from_raw(ring, vec![n], raw).expect("length matches shape"),
        );
        let flags = secure_sign(ctx, &share, ReluMode::RevealedSign)
            .map_err(|e| e.to_string())?
            .flags
            .ok_or("RevealedSign left the sender without flags")?;
        let ns = time_ns(|| {
            secure_sign(ctx, &share, ReluMode::RevealedSign).map_err(|e| e.to_string())
        })?;
        Ok::<_, String>((flags, ns))
    });
    let (flags, ns) = user?;
    if flags != want {
        return Err(format!("secure_sign flags differ from the plaintext sign at n={n}"));
    }
    Ok(ns)
}

/// `core.sign_ns_per_elem.n<N>` and `parallel.sign_speedup_nt`.
fn sign_probe(rng: &mut StdRng, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut default_large = f64::NAN;
    for n in SIGN_SIZES {
        let ns = sign_series(rng, n)?;
        default_large = Summary::of(&ns).median;
        out.push(scaled(format!("core.sign_ns_per_elem.n{n}"), "ns", &ns, n as f64));
    }
    // The fan-out's worth: one thread against the default thread count, on
    // the batch-8 size. The variable is re-read on every fan-out.
    let saved = std::env::var("AQ2PNN_THREADS").ok();
    std::env::set_var("AQ2PNN_THREADS", "1");
    let single = sign_series(rng, SIGN_SIZES[1]);
    match saved {
        Some(v) => std::env::set_var("AQ2PNN_THREADS", v),
        None => std::env::remove_var("AQ2PNN_THREADS"),
    }
    let speedup = Summary::of(&single?).median / default_large;
    out.push(Metric::new("parallel.sign_speedup_nt", "ratio", Summary::single(speedup)));
    Ok(())
}

/// `transport.{pack,unpack}_ns_per_elem.l16`: the wire packer at ℓ = 16.
fn packing_probe(rng: &mut StdRng, out: &mut Vec<Metric>) -> Result<(), String> {
    const COUNT: usize = 1 << 16;
    let ring = Ring::new(Q1_BITS);
    let elems: Vec<u64> = (0..COUNT).map(|_| ring.sample(rng)).collect();
    let packed = pack_bits(&elems, Q1_BITS);
    if packed != pack_bits_reference(&elems, Q1_BITS)
        || unpack_bits(&packed, Q1_BITS, COUNT) != elems
    {
        return Err("pack_bits/unpack_bits do not round-trip at l16".into());
    }
    let ns = time_ns(|| Ok(pack_bits(black_box(&elems), Q1_BITS)))?;
    out.push(scaled("transport.pack_ns_per_elem.l16".into(), "ns", &ns, COUNT as f64));
    let ns = time_ns(|| Ok(unpack_bits(black_box(&packed), Q1_BITS, COUNT)))?;
    out.push(scaled("transport.unpack_ns_per_elem.l16".into(), "ns", &ns, COUNT as f64));
    Ok(())
}

/// `transport.msg_rtt_us.<size>`: ping-pong through `Session` over a
/// loopback `TcpTransport`, the path every protocol message takes.
fn rtt_probe(rng: &mut StdRng, out: &mut Vec<Metric>) -> Result<(), String> {
    let err = |e: aq2pnn_transport::TransportError| e.to_string();
    let (ping, pong) = crate::trace::tcp_pair()?;
    let sizes = [("64B", 64usize), ("512KiB", 512 << 10)];
    let rounds = sizes.len() * (REPS + 1);
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), String> {
            for _ in 0..rounds {
                pong.send(pong.recv().map_err(err)?).map_err(err)?;
            }
            Ok(())
        });
        for (name, size) in sizes {
            let payload: Vec<u8> = (0..size).map(|_| rng.gen::<u32>() as u8).collect();
            let ns = time_ns(|| {
                ping.send(Bytes::from(payload.clone())).map_err(err)?;
                if ping.recv().map_err(err)?[..] == payload[..] {
                    Ok(())
                } else {
                    Err(format!("{name} ping-pong did not echo its payload"))
                }
            })?;
            out.push(scaled(format!("transport.msg_rtt_us.{name}"), "us", &ns, 1e3));
        }
        echo.join().expect("echo thread panicked")
    })
}

/// `server.admission_ms`: connect → `Hello` verdict against an in-process
/// `InferenceServer` on a loopback `TcpAcceptor` (admission needs no model).
fn admission_probe(out: &mut Vec<Metric>) -> Result<(), String> {
    let err = |e: aq2pnn_transport::TransportError| e.to_string();
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", TcpConfig::default()).map_err(err)?;
    let addr = acceptor.local_addr().map_err(err)?;
    // Each probe connection ends as a rejected session; keep the server's
    // log lines about them off our stderr.
    let obs = ServerObs::default();
    obs.tracer.set_log_sink(aq2pnn_obs::LogSink::Silent);
    let mut server = InferenceServer::start(
        Box::new(acceptor),
        // Room for every probe connection, so a not yet torn down predecessor
        // cannot get one shed.
        ServerConfig { queue_depth: 2 * REPS, ..ServerConfig::default() },
        ModelRegistry::new(),
        obs,
    );
    let ns = time_ns(|| {
        let link = TcpTransport::connect(addr, TcpConfig::default()).map_err(err)?;
        link.send(Frame::control(FrameKind::Hello, 0, 0).encode().into()).map_err(err)?;
        let reply = link.recv(Some(Duration::from_secs(5))).map_err(err)?;
        let verdict = Frame::decode(&reply).map_err(err)?;
        if verdict.kind == FrameKind::Hello && verdict.seq > 0 {
            Ok(())
        } else {
            Err(format!("admission replied {:?}, not a stream id", verdict.kind))
        }
    });
    server.drain();
    let ns = ns?;
    out.push(scaled("server.admission_ms".into(), "ms", &ns, 1e6));
    Ok(())
}

/// Every probe, in layer order.
pub fn all(seed: u64) -> Result<Vec<Metric>, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_9e0b);
    let mut out = Vec::new();
    ring_matmul_probe(&mut rng, &mut out)?;
    secure_matmul_probe(&mut rng, &mut out)?;
    triple_gen_probe(seed, &mut out)?;
    ot_flow_probe(&mut rng, &mut out)?;
    sign_probe(&mut rng, &mut out)?;
    packing_probe(&mut rng, &mut out)?;
    rtt_probe(&mut rng, &mut out)?;
    admission_probe(&mut out)?;
    Ok(out)
}
