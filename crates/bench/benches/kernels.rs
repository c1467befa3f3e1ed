//! Criterion benchmarks of the data-plane kernels behind the 2PC hot path,
//! per ring width: the cache-blocked mask-deferred `ring_matmul` (three
//! calls per conv layer, paper Eq. 1) once per [`IsaLevel`] the host
//! supports, the wire packers and the A2BM comparison-code table fill —
//! each against its scalar/generic reference.
//!
//! Every variant asserts bit-identity with the reference before it is
//! timed, so this doubles as a correctness gate. On top of the timings
//! printed per bench, the run emits `BENCH_kernels.json` (in the working
//! directory) with every measurement plus derived `dispatch_speedups`
//! (each GEMM ISA's win over the scalar kernels at the same width, and the
//! packers' and fill's win over their generic loops), which the
//! `kernel_gate` binary compares against the committed
//! `BENCH_kernels_baseline.json` in CI.

use aq2pnn::abrelu::{fill_sender_codes, fill_sender_codes_reference};
use aq2pnn_ring::{IsaLevel, Ring, RingTensor};
use aq2pnn_sharing::a2b::{group_widths, split_groups_into};
use aq2pnn_sharing::beaver::{ring_matmul_reference, ring_matmul_with};
use aq2pnn_transport::{pack_bits, pack_bits_reference, unpack_bits, unpack_bits_reference};
use criterion::{all_results, criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::Write;

/// GEMM shapes from the paper's workloads, as lowered by im2col
/// (`[m, k] ⊗ [k, n]` = `[oh·ow, in_c·kh·kw] ⊗ [kdim, out_c]`):
/// LeNet-5 conv2 / fc1 on MNIST, and a VGG16 stage-2 conv block on
/// CIFAR — the `256×1152×64` shape the acceptance bar is pinned to.
const GEMM_SHAPES: &[(&str, usize, usize, usize)] = &[
    ("lenet5_conv2_100x150x16", 100, 150, 16),
    ("lenet5_fc1_1x400x120", 1, 400, 120),
    ("vgg16_conv_256x1152x64", 256, 1152, 64),
];

/// Ring widths for the per-ℓ sweeps: the paper's adaptive-quantization
/// carriers (12/16/20) plus the u32→u64 accumulator boundary (32). The
/// VGG shape runs the full sweep; the LeNet shapes run at `GEMM_SPOT_L`.
const GEMM_SWEEP_L: &[u32] = &[12, 16, 20, 32];
const GEMM_SPOT_L: u32 = 20;

/// Wire widths exercising every packer path: the specialized group
/// kernels (sub-byte 1/2/4 and the ℓ = 12/20 paper rings) and an awkward
/// bit-straddling generic width (31).
const PACK_BITS: &[u32] = &[1, 2, 4, 12, 20, 31];
const PACK_COUNT: usize = 1 << 14;

/// Code-table fill widths (full single-round pattern) and batch size.
const FILL_L: &[u32] = &[12, 16, 20, 32];
const FILL_ITEMS: usize = 1 << 13;

fn bench_ring_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    for &(name, m, k, n) in GEMM_SHAPES {
        let sweep: &[u32] = if name.starts_with("vgg") { GEMM_SWEEP_L } else { &[GEMM_SPOT_L] };
        for &bits in sweep {
            let ring = Ring::new(bits);
            let a = RingTensor::random(ring, vec![m, k], &mut rng);
            let b = RingTensor::random(ring, vec![k, n], &mut rng);
            let want = ring_matmul_reference(&a, &b).unwrap();
            let case = format!("l{bits}/{name}");
            c.bench_with_input(BenchmarkId::new("matmul/reference", &case), &(), |bch, ()| {
                bch.iter(|| ring_matmul_reference(black_box(&a), black_box(&b)).unwrap());
            });
            for isa in IsaLevel::available() {
                assert_eq!(
                    ring_matmul_with(isa, &a, &b).unwrap(),
                    want,
                    "dispatch disagrees with reference at {case} on {isa}"
                );
                let id = BenchmarkId::new(&format!("matmul/{isa}_1t"), &case);
                c.bench_with_input(id, &(), |bch, ()| {
                    bch.iter(|| ring_matmul_with(isa, black_box(&a), black_box(&b)).unwrap());
                });
            }
        }
    }
}

fn bench_packing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    for &bits in PACK_BITS {
        let ring = Ring::new(bits);
        let elems: Vec<u64> = (0..PACK_COUNT).map(|_| ring.sample(&mut rng)).collect();
        let packed = pack_bits_reference(&elems, bits);
        c.bench_with_input(BenchmarkId::new("pack/reference", bits), &(), |bch, ()| {
            bch.iter(|| pack_bits_reference(black_box(&elems), bits));
        });
        c.bench_with_input(BenchmarkId::new("unpack/reference", bits), &(), |bch, ()| {
            bch.iter(|| unpack_bits_reference(black_box(&packed), bits, PACK_COUNT));
        });
        assert_eq!(pack_bits(&elems, bits), packed, "packer disagrees at {bits} bits");
        assert_eq!(unpack_bits(&packed, bits, PACK_COUNT), elems, "unpacker disagrees at {bits}");
        c.bench_with_input(BenchmarkId::new("pack/scalar", bits), &(), |bch, ()| {
            bch.iter(|| pack_bits(black_box(&elems), bits));
        });
        c.bench_with_input(BenchmarkId::new("unpack/scalar", bits), &(), |bch, ()| {
            bch.iter(|| unpack_bits(black_box(&packed), bits, PACK_COUNT));
        });
    }
}

fn bench_fill_codes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    for &bits in FILL_L {
        let ring = Ring::new(bits);
        let widths = group_widths(bits);
        let u_cnt = widths.len();
        let vals = RingTensor::random(ring, vec![FILL_ITEMS], &mut rng);
        let mut u_flat = Vec::new();
        split_groups_into(ring, vals.as_slice(), &widths, &mut u_flat);
        let (mut want_msgs, mut want_arity) = (Vec::new(), Vec::new());
        fill_sender_codes_reference(
            &u_flat,
            u_cnt,
            &widths,
            0,
            u_cnt,
            None,
            &mut want_msgs,
            &mut want_arity,
        );
        {
            let (mut msgs, mut arity) = (Vec::new(), Vec::new());
            let id = BenchmarkId::new("fill_codes/reference", bits);
            c.bench_with_input(id, &(), |bch, ()| {
                bch.iter(|| {
                    fill_sender_codes_reference(
                        black_box(&u_flat),
                        u_cnt,
                        &widths,
                        0,
                        u_cnt,
                        None,
                        &mut msgs,
                        &mut arity,
                    );
                    msgs.len()
                });
            });
        }
        let (mut msgs, mut arity) = (Vec::new(), Vec::new());
        fill_sender_codes(&u_flat, u_cnt, &widths, 0, u_cnt, None, &mut msgs, &mut arity);
        assert_eq!(msgs, want_msgs, "code fill disagrees at l{bits}");
        assert_eq!(arity, want_arity, "arity disagrees at l{bits}");
        c.bench_with_input(BenchmarkId::new("fill_codes/scalar", bits), &(), |bch, ()| {
            bch.iter(|| {
                fill_sender_codes(
                    black_box(&u_flat),
                    u_cnt,
                    &widths,
                    0,
                    u_cnt,
                    None,
                    &mut msgs,
                    &mut arity,
                );
                msgs.len()
            });
        });
    }
}

criterion_group!(kernels, bench_ring_matmul, bench_packing, bench_fill_codes);

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serializes the measurement registry (plus derived speedups) by hand —
/// the offline workspace carries no JSON dependency. The
/// `dispatch_speedups` rows (`{kernel, l, isa, vs_scalar}`) are the
/// machine-portable quantity the `kernel_gate` binary regresses against
/// the committed baseline.
fn write_report(path: &str) -> std::io::Result<()> {
    let results = all_results();
    let ns = |name: String| results.iter().find(|r| r.name == name).map(|r| r.ns_per_iter);
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}, \"iters_per_batch\": {}}}{sep}\n",
            json_escape(&r.name),
            r.ns_per_iter,
            r.iters
        ));
    }
    // Blocked-vs-reference speedups, the historical GEMM trajectory.
    out.push_str("  ],\n  \"speedups\": [\n");
    let active = IsaLevel::active();
    let mut lines = Vec::new();
    for &(name, ..) in GEMM_SHAPES {
        let sweep: &[u32] = if name.starts_with("vgg") { GEMM_SWEEP_L } else { &[GEMM_SPOT_L] };
        for &bits in sweep {
            let case = format!("l{bits}/{name}");
            let (reference, single) =
                (ns(format!("matmul/reference/{case}")), ns(format!("matmul/{active}_1t/{case}")));
            if let (Some(reference), Some(single)) = (reference, single) {
                lines.push(format!(
                    "    {{\"shape\": \"{name}\", \"l\": {bits}, \
                     \"single_thread_vs_reference\": {:.2}}}",
                    reference / single
                ));
            }
        }
    }
    out.push_str(&lines.join(",\n"));
    // Per-ISA dispatch rows at each width: the kernel's win over the scalar
    // dispatch kernel (`vs_scalar`) and over the pre-dispatch generic
    // implementation (`vs_reference`). These are the rows the CI gate
    // compares against the committed baseline.
    out.push_str("\n  ],\n  \"dispatch_speedups\": [\n");
    let mut lines = Vec::new();
    let mut push_row =
        |kernel: &str, l: u32, isa: IsaLevel, reference: String, scalar: String, name: String| {
            if let (Some(reference), Some(scalar), Some(fast)) =
                (ns(reference), ns(scalar), ns(name))
            {
                lines.push(format!(
                    "    {{\"kernel\": \"{kernel}\", \"l\": {l}, \"isa\": \"{isa}\", \
                     \"vs_scalar\": {:.3}, \"vs_reference\": {:.3}}}",
                    scalar / fast,
                    reference / fast
                ));
            }
        };
    for isa in IsaLevel::available() {
        for &bits in GEMM_SWEEP_L {
            let case = format!("l{bits}/vgg16_conv_256x1152x64");
            push_row(
                "matmul",
                bits,
                isa,
                format!("matmul/reference/{case}"),
                format!("matmul/scalar_1t/{case}"),
                format!("matmul/{isa}_1t/{case}"),
            );
        }
    }
    // The packers and the code fill have one (scalar) implementation, so
    // their rows carry only the win over the generic loop.
    for &bits in PACK_BITS {
        for kernel in ["pack", "unpack"] {
            push_row(
                kernel,
                bits,
                IsaLevel::Scalar,
                format!("{kernel}/reference/{bits}"),
                format!("{kernel}/scalar/{bits}"),
                format!("{kernel}/scalar/{bits}"),
            );
        }
    }
    for &bits in FILL_L {
        push_row(
            "fill_codes",
            bits,
            IsaLevel::Scalar,
            format!("fill_codes/reference/{bits}"),
            format!("fill_codes/scalar/{bits}"),
            format!("fill_codes/scalar/{bits}"),
        );
    }
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ]\n}\n");
    std::fs::File::create(path)?.write_all(out.as_bytes())
}

fn main() {
    kernels();
    let path =
        std::env::var("BENCH_KERNELS_JSON").unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    write_report(&path).expect("report written");
    println!("wrote {path}");
}
