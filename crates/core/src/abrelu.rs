//! ABReLU: arithmetic-to-binary-sharing ReLU (paper Sec. 4.4) and the
//! secure comparison machine (SCM, Sec. 4.3.3) it is built on.
//!
//! The problem: for `⟦x⟧ = (x_i, x_j)` the parties must learn
//! `sign((x_i + x_j) mod Q)` — the naive comparison `−x_i` vs `x_j` is
//! wrong whenever the share sum wraps (paper's `(−100, 5)` example). The
//! paper's solution compares `u = −x_i` against `v = x_j` *group-wise*
//! (A2BM bit groups driven through the OT-flow, Eq. 6 comparison codes)
//! and resolves the wrap with quadrant detection on the top two bits
//! (Fig. 7).
//!
//! The decision rule implemented here (derived in `sign_from_codes`, and
//! verified exhaustively in the tests against `(x_i + x_j) mod Q`):
//! with `su`/`sv` the sign bits of `u`/`v` and `rest` the unsigned
//! comparison of their remaining `ℓ−1` bits,
//!
//! * `su == sv` → `x > 0  ⟺  v_rest > u_rest` (1st/3rd quadrants:
//!   no wrap, direct comparison),
//! * `su != sv` → `x > 0  ⟺  v_rest < u_rest` (2nd/4th quadrants:
//!   the wrap inverts the comparison — the paper's sub-quadrant rules),
//! * ties → `x ∈ {0, −2^{ℓ-1}}` → not positive.
//!
//! Party *i* (the **sender**) builds the possible-value comparison matrix
//! `M_i` (Fig. 5) — one `(1, 2^w)`-OT slot per possible receiver group
//! value, holding the Eq. 6 comparison code. Party *j* (the **receiver**)
//! obtains exactly the codes for its own group values and combines them.

use crate::{PartyContext, ProtocolError, ReluMode, ReluRounds};
use aq2pnn_obs::report::CAT_STAGE;
use aq2pnn_ot::{recv_batch, send_batch_flat, OtChoice};
use aq2pnn_parallel::{par_chunks_mut, par_fill_indexed};
use aq2pnn_ring::{ct, simd, IsaLevel, RingTensor};
use aq2pnn_sharing::a2b::{group_widths, split_groups_into};
use aq2pnn_sharing::{AShare, PartyId};

/// Eq. 6 comparison codes.
const LT: u64 = 1;
const EQ: u64 = 2;
const GT: u64 = 3;
/// Bits per transmitted comparison code.
const CODE_BITS: u32 = 2;
/// Minimum per-thread work items for the batched fan-outs: comparison-code
/// slots on the sender, per-value sign reductions on the receiver.
const PAR_MIN_SLOTS: usize = 2048;
const PAR_MIN_VALUES: usize = 1024;

/// Eq. 6 comparison code for one group, branch-free: the sender's group
/// value is a function of its secret share, so the code table build must
/// not branch on it.
fn code(u_group: u8, slot: u8) -> u64 {
    ct::cmp_code(u64::from(u_group), u64::from(slot))
}

/// Combines per-group comparison codes (`cmp(u_g, v_g)`, MSB-first) into
/// the positivity of `x = (x_i + x_j) mod Q` where `u = −x_i`, `v = x_j`.
///
/// `codes[0]` compares the sign bits; `codes[1..]` compare the remaining
/// groups lexicographically.
#[must_use]
pub fn sign_from_codes(codes: &[u64]) -> bool {
    // secrecy: allow(secret-compare, "`== 1` on a {0,1} word lowers to a flag set, not a branch; the bool is the protocol output handed to the caller")
    sign_flag(codes[0], codes.get(1).copied().unwrap_or(EQ), codes.get(2..).unwrap_or(&[])) == 1
}

/// [`sign_from_codes`] over the split storage of the lazy two-round
/// schedule: the two quadrant codes live in the head buffer, the remaining
/// groups (if fetched) in the tail buffer — combined without concatenating.
///
/// Branch-free: the codes are derived from both parties' secret shares, so
/// the combination runs the same instruction trace for every input and
/// returns the positivity as a `{0, 1}` word. The scan visits *every* tail
/// group rather than stopping at the first non-`EQ` code — a
/// first-difference early exit would make the latency a function of the
/// compared values (the classic `memcmp` timing leak).
fn sign_flag(sign_cmp: u64, code1: u64, tail: &[u64]) -> u64 {
    // First non-EQ code of code1 ‖ tail: once `rest` leaves EQ it sticks.
    // The flag goes through `black_box`: left transparent, release builds
    // lower the select to "skip the load of `c` unless `rest == EQ`" — a
    // secret-dependent branch the timing harness picks up at some code
    // layouts.
    let mut rest = code1;
    for &c in tail {
        let undecided = std::hint::black_box(ct::eq(rest, EQ));
        rest = ct::select(undecided, c, rest);
    }
    // Same quadrant: x > 0 ⟺ v > u ⟺ rest == LT; mixed quadrants: the
    // mod-Q wrap inverts the comparison (rest == GT). When every group ties
    // (rest == EQ), x ∈ {0, −2^{ℓ-1}} — never strictly positive — and both
    // selectors below are already 0.
    ct::select(ct::eq(sign_cmp, EQ), ct::eq(rest, LT), ct::eq(rest, GT))
}

/// How many groups must be fetched before `sign_from_codes` is decided,
/// given the first two codes — the quadrant shortcut of paper Fig. 7.
/// Returns `true` if groups 0..=1 suffice.
#[must_use]
pub fn quadrant_decides(code0: u64, code1: u64) -> bool {
    // The rest-comparison is decided at group 1 unless that group ties.
    // (code0 always resolves su vs sv on its own since both are 1 bit.)
    let _ = code0;
    code1 != EQ
}

/// Result of a batched secure comparison.
#[derive(Clone)]
pub struct SignFlags {
    /// `1` where the compared value is strictly positive. Present on the
    /// receiver always; on the sender only in [`ReluMode::RevealedSign`]
    /// (after the `T_m` exchange).
    pub flags: Option<Vec<u8>>,
}

/// `Debug` redacts the flag vector — the flags are the *plaintext signs*
/// of the compared values, the very data the protocol computes under
/// sharing. Only the count is printed; tests use
/// [`SignFlags::fmt_revealed`].
impl std::fmt::Debug for SignFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignFlags")
            .field("len", &self.flags.as_ref().map(Vec::len))
            .field("flags", &"<redacted>")
            .finish()
    }
}

impl SignFlags {
    /// Formats the sign flags *including their values* — test-only opt-in
    /// counterpart of the redacted `Debug` impl.
    #[must_use]
    pub fn fmt_revealed(&self) -> String {
        // secrecy: allow(secret-sink, "explicit opt-in reveal for tests; the redacted Debug impl is the default")
        format!("SignFlags({:?})", self.flags)
    }
}

/// Batched secure sign computation of shared values on the `Q1` carrier.
///
/// Party 0 acts as the OT sender with `u = −x_0`; party 1 as the receiver
/// with `v = x_1`. In [`ReluMode::RevealedSign`] the receiver transmits the
/// `T_m` mask back so both parties hold the flags (paper Fig. 4 step ④ /
/// OUT-MSK buffer); in [`ReluMode::MaskedMux`] only the receiver learns
/// them.
///
/// # Errors
///
/// Returns [`ProtocolError::RingMismatch`] if the shares are not on the
/// `Q1` carrier (the comparison decomposition is only correct there), and
/// propagates transport/OT failures and desynchronized batch geometry.
pub fn secure_sign(
    ctx: &mut PartyContext,
    x_q1: &AShare,
    mode: ReluMode,
) -> Result<SignFlags, ProtocolError> {
    let ring = ctx.q1();
    if x_q1.ring() != ring {
        return Err(ProtocolError::RingMismatch { expected: ring.bits(), got: x_q1.ring().bits() });
    }
    let n = x_q1.len();
    let widths = group_widths(ring.bits());
    let u_cnt = widths.len();

    match ctx.id {
        PartyId::User => {
            // Sender: u = −x_0, decomposed into one flat n × U group buffer.
            let a2bm = ctx.span_begin("a2bm", CAT_STAGE, &[]);
            let mut neg = vec![0u64; n];
            let x0 = x_q1.as_tensor().as_slice();
            par_fill_indexed(&mut neg, PAR_MIN_VALUES, |v| ring.neg(x0[v]));
            let mut u_flat = Vec::new();
            split_groups_into(ring, &neg, &widths, &mut u_flat);
            ctx.span_end(a2bm);
            let ot_flow = ctx.span_begin("ot-flow", CAT_STAGE, &[]);
            // Flat OT message buffer + arities, reused across rounds.
            let (mut msgs, mut arity) = (Vec::new(), Vec::new());
            match ctx.cfg.relu_rounds {
                ReluRounds::Single => {
                    fill_sender_codes(
                        &u_flat,
                        u_cnt,
                        &widths,
                        0,
                        u_cnt,
                        None,
                        IsaLevel::active(),
                        &mut msgs,
                        &mut arity,
                    );
                    send_batch_flat(
                        &ctx.ep,
                        &ctx.group,
                        &ctx.labels,
                        &msgs,
                        &arity,
                        CODE_BITS,
                        &mut ctx.rng,
                    )?;
                }
                ReluRounds::Lazy => {
                    // Round 1: quadrant groups.
                    fill_sender_codes(
                        &u_flat,
                        u_cnt,
                        &widths,
                        0,
                        2,
                        None,
                        IsaLevel::active(),
                        &mut msgs,
                        &mut arity,
                    );
                    send_batch_flat(
                        &ctx.ep,
                        &ctx.group,
                        &ctx.labels,
                        &msgs,
                        &arity,
                        CODE_BITS,
                        &mut ctx.rng,
                    )?;
                    // Receive the undecided bitmap, serve round 2. One O(n)
                    // walk over the bitmap yields the item subset directly.
                    let bitmap = ctx.ep.recv_bits(1, n)?;
                    let undecided: Vec<usize> = bitmap
                        .iter()
                        .enumerate()
                        .filter(|(_, &b)| b == 1)
                        .map(|(i, _)| i)
                        .collect();
                    if !undecided.is_empty() {
                        fill_sender_codes(
                            &u_flat,
                            u_cnt,
                            &widths,
                            2,
                            u_cnt,
                            Some(&undecided),
                            IsaLevel::active(),
                            &mut msgs,
                            &mut arity,
                        );
                        send_batch_flat(
                            &ctx.ep,
                            &ctx.group,
                            &ctx.labels,
                            &msgs,
                            &arity,
                            CODE_BITS,
                            &mut ctx.rng,
                        )?;
                    }
                }
            }
            ctx.span_end(ot_flow);
            match mode {
                ReluMode::RevealedSign => {
                    let reveal = ctx.span_begin("reveal", CAT_STAGE, &[]);
                    let t_m = ctx.ep.recv_bits(1, n)?;
                    ctx.span_end(reveal);
                    Ok(SignFlags { flags: Some(t_m.iter().map(|&b| b as u8).collect()) })
                }
                ReluMode::MaskedMux => Ok(SignFlags { flags: None }),
            }
        }
        PartyId::ModelProvider => {
            // Receiver: v = x_1, decomposed into one flat n × U group buffer.
            let a2bm = ctx.span_begin("a2bm", CAT_STAGE, &[]);
            let mut v_flat = Vec::new();
            split_groups_into(ring, x_q1.as_tensor().as_slice(), &widths, &mut v_flat);
            ctx.span_end(a2bm);
            let ot_flow = ctx.span_begin("ot-flow", CAT_STAGE, &[]);
            let mut choices = Vec::new();
            let flags = match ctx.cfg.relu_rounds {
                ReluRounds::Single => {
                    fill_receiver_choices(&v_flat, u_cnt, &widths, 0, u_cnt, None, &mut choices);
                    let codes = recv_batch(
                        &ctx.ep,
                        &ctx.group,
                        &ctx.labels,
                        &choices,
                        CODE_BITS,
                        &mut ctx.rng,
                    )?;
                    let mut flags = vec![0u8; n];
                    #[allow(clippy::cast_possible_truncation)] // sign_flag is in {0, 1}
                    par_fill_indexed(&mut flags, PAR_MIN_VALUES, |v| {
                        let c = &codes[v * u_cnt..(v + 1) * u_cnt];
                        sign_flag(c[0], c[1], &c[2..]) as u8
                    });
                    flags
                }
                ReluRounds::Lazy => {
                    fill_receiver_choices(&v_flat, u_cnt, &widths, 0, 2, None, &mut choices);
                    let head = recv_batch(
                        &ctx.ep,
                        &ctx.group,
                        &ctx.labels,
                        &choices,
                        CODE_BITS,
                        &mut ctx.rng,
                    )?;
                    // Undecided bitmap (1 = needs round 2) in one parallel
                    // pass; the subset list and each undecided item's tail
                    // position follow from one O(n) prefix walk. The bitmap
                    // is secret-derived, but the lazy schedule *sends it to
                    // the peer* two lines down — that disclosure is the
                    // protocol's deliberate traffic/leak trade (DESIGN.md
                    // §"Secrecy discipline"), so local branches on it reveal
                    // nothing beyond what the wire already carries.
                    let mut bitmap = vec![0u64; n];
                    par_fill_indexed(&mut bitmap, PAR_MIN_VALUES, |v| ct::eq(head[2 * v + 1], EQ));
                    let mut undecided = Vec::new();
                    let mut tail_pos = vec![0usize; n];
                    for v in 0..n {
                        tail_pos[v] = undecided.len();
                        if bitmap[v] == 1 {
                            undecided.push(v);
                        }
                    }
                    ctx.ep.send_bits(&bitmap, 1)?;
                    let tail = if undecided.is_empty() {
                        Vec::new()
                    } else {
                        fill_receiver_choices(
                            &v_flat,
                            u_cnt,
                            &widths,
                            2,
                            u_cnt,
                            Some(&undecided),
                            &mut choices,
                        );
                        recv_batch(
                            &ctx.ep,
                            &ctx.group,
                            &ctx.labels,
                            &choices,
                            CODE_BITS,
                            &mut ctx.rng,
                        )?
                    };
                    let rest_groups = u_cnt - 2;
                    let mut flags = vec![0u8; n];
                    #[allow(clippy::cast_possible_truncation)] // sign_flag is in {0, 1}
                    par_fill_indexed(&mut flags, PAR_MIN_VALUES, |v| {
                        let tail_codes = if bitmap[v] == 1 {
                            let at = tail_pos[v] * rest_groups;
                            &tail[at..at + rest_groups]
                        } else {
                            &[][..]
                        };
                        sign_flag(head[2 * v], head[2 * v + 1], tail_codes) as u8
                    });
                    flags
                }
            };
            ctx.span_end(ot_flow);
            if mode == ReluMode::RevealedSign {
                let reveal = ctx.span_begin("reveal", CAT_STAGE, &[]);
                let t_m: Vec<u64> = flags.iter().map(|&b| u64::from(b)).collect();
                ctx.ep.send_bits(&t_m, 1)?;
                ctx.span_end(reveal);
            }
            Ok(SignFlags { flags: Some(flags) })
        }
    }
}

/// Builds the sender's comparison-code matrix `M_i` (Fig. 5) for groups
/// `from..to` of the items in `subset` (all items when `None`) directly
/// into the reused flat `msgs`/`arity` buffers, laid out item-major →
/// group-major → slot as [`send_batch_flat`] expects. The per-slot code
/// evaluation fans out across threads; the full-item standard pattern
/// (`from..to` covering every A2BM group, 4×4 code table) additionally
/// routes each item's fill through the width-specialized per-ISA kernel
/// from [`aq2pnn_ring::simd`] (DESIGN.md §7.4).
///
/// Public (with an explicit `isa`) so benches and identity tests can drive
/// the kernel per ISA level; the protocol calls it with
/// [`IsaLevel::active`]. The produced codes are ISA-independent.
///
/// # Panics
///
/// Panics if `from..to` is not a valid group range for `widths` or the
/// flat buffer geometry is inconsistent with `u_cnt`.
#[allow(clippy::too_many_arguments)]
pub fn fill_sender_codes(
    u_flat: &[u8],
    u_cnt: usize,
    widths: &[u32],
    from: usize,
    to: usize,
    subset: Option<&[usize]>,
    isa: IsaLevel,
    msgs: &mut Vec<u64>,
    arity: &mut Vec<usize>,
) {
    fill_codes_impl(u_flat, u_cnt, widths, from, to, subset, Some(isa), msgs, arity);
}

/// [`fill_sender_codes`] with the per-ISA item kernel disabled: the
/// pre-dispatch generic loop (precomputed code rows + per-group memcpy),
/// kept as the speedup denominator for the kernel benches and as a second
/// ground truth for identity tests.
///
/// # Panics
///
/// Same geometry panics as [`fill_sender_codes`].
#[allow(clippy::too_many_arguments)]
pub fn fill_sender_codes_reference(
    u_flat: &[u8],
    u_cnt: usize,
    widths: &[u32],
    from: usize,
    to: usize,
    subset: Option<&[usize]>,
    msgs: &mut Vec<u64>,
    arity: &mut Vec<usize>,
) {
    fill_codes_impl(u_flat, u_cnt, widths, from, to, subset, None, msgs, arity);
}

#[allow(clippy::too_many_arguments)]
fn fill_codes_impl(
    u_flat: &[u8],
    u_cnt: usize,
    widths: &[u32],
    from: usize,
    to: usize,
    subset: Option<&[usize]>,
    isa: Option<IsaLevel>,
    msgs: &mut Vec<u64>,
    arity: &mut Vec<usize>,
) {
    let items = subset.map_or(u_flat.len() / u_cnt, <[usize]>::len);
    // Slot offset of each group within one item's stride.
    let mut offs = Vec::with_capacity(to - from + 1);
    let mut stride = 0usize;
    offs.push(0);
    for &w in &widths[from..to] {
        stride += 1usize << w;
        offs.push(stride);
    }
    arity.clear();
    for _ in 0..items {
        for &w in &widths[from..to] {
            arity.push(1usize << w);
        }
    }
    msgs.clear();
    msgs.resize(items * stride, 0);
    // The code row for a group is a fixed function of (width, u value):
    // `u` times GT, one EQ, then LT to the end of the row. Precomputing the
    // rows turns the per-slot comparison into a per-group memcpy.
    let max_w = widths[from..to].iter().max().copied().unwrap_or(0);
    let row_len = 1usize << max_w;
    let mut rows = vec![LT; row_len * row_len];
    for u in 0..row_len {
        for (l, slot) in rows[u * row_len..(u + 1) * row_len].iter_mut().enumerate() {
            *slot = code(u as u8, l as u8);
        }
    }
    // Full-item standard pattern: two 1-bit quadrant groups then *only*
    // 2-bit groups — a 4×4 code table and stride 4·(U−1). This is the
    // single-round schedule's shape on even ℓ, so it gets the per-ISA item
    // kernel; partial ranges (the lazy schedule's rounds) and odd-ℓ rings
    // (whose last group is 1-bit) keep the generic loop below.
    let standard = from == 0
        && to == u_cnt
        && u_cnt >= 3
        && widths[0] == 1
        && widths[1] == 1
        && widths[2..u_cnt].iter().all(|&w| w == 2);
    let item_kernel = if standard {
        isa.and_then(|isa| simd::fill_codes_item_fn(isa, u_cnt)).map(|f| {
            let rows16: &[u64; 16] = rows.as_slice().try_into().expect("4x4 code table");
            (f, rows16)
        })
    } else {
        None
    };
    let mut item_rows: Vec<&mut [u64]> = msgs.chunks_mut(stride).collect();
    par_chunks_mut(&mut item_rows, PAR_MIN_SLOTS / stride.max(1), |start, chunk| {
        for (j, slots) in chunk.iter_mut().enumerate() {
            let v = subset.map_or(start + j, |s| s[start + j]);
            if let Some((f, rows16)) = item_kernel {
                f(&u_flat[v * u_cnt..(v + 1) * u_cnt], rows16, slots);
                continue;
            }
            for g in from..to {
                let u = u_flat[v * u_cnt + g] as usize;
                let n = 1usize << widths[g];
                slots[offs[g - from]..offs[g - from] + n]
                    .copy_from_slice(&rows[u * row_len..u * row_len + n]);
            }
        }
    });
}

/// Builds the receiver's OT choice list for groups `from..to` of the items
/// in `subset` (all items when `None`) from the flat group buffer, reusing
/// `choices`' allocation.
fn fill_receiver_choices(
    v_flat: &[u8],
    u_cnt: usize,
    widths: &[u32],
    from: usize,
    to: usize,
    subset: Option<&[usize]>,
    choices: &mut Vec<OtChoice>,
) {
    let items = subset.map_or(v_flat.len() / u_cnt, <[usize]>::len);
    choices.clear();
    choices.reserve(items * (to - from));
    for item in 0..items {
        let v = subset.map_or(item, |s| s[item]);
        for g in from..to {
            choices
                .push(OtChoice { choice: v_flat[v * u_cnt + g] as usize, n: 1usize << widths[g] });
        }
    }
}

/// OT-based multiplexer: computes fresh shares of `s·x` where the receiver
/// (party 1) holds the plaintext selection bits `s` and `x` is additively
/// shared. One `(1,2)`-OT with ring-width messages per element.
///
/// Pass `flags: Some(...)` on party 1, `None` on party 0.
///
/// # Errors
///
/// Propagates transport/OT failures; [`ProtocolError::Desync`] if party 1
/// calls without flags or party 0 with them (protocol misuse).
pub fn mux_by_receiver(
    ctx: &mut PartyContext,
    flags: Option<&[u8]>,
    x: &AShare,
) -> Result<AShare, ProtocolError> {
    let ring = x.ring();
    let n = x.len();
    match ctx.id {
        PartyId::User => {
            if flags.is_some() {
                return Err(ProtocolError::Desync(
                    "party 0 must not hold the selection bits".into(),
                ));
            }
            // Messages per element: m_b = b·x0 − r, built as one flat
            // two-slot-per-item buffer.
            let r = RingTensor::random(ring, vec![n], &mut ctx.rng);
            let (x0, rs) = (x.as_tensor().as_slice(), r.as_slice());
            let mut msgs = vec![0u64; 2 * n];
            par_fill_indexed(&mut msgs, PAR_MIN_SLOTS, |idx| {
                let (k, b) = (idx / 2, idx % 2);
                if b == 0 {
                    ring.neg(rs[k])
                } else {
                    ring.sub(x0[k], rs[k])
                }
            });
            let arity = vec![2usize; n];
            send_batch_flat(
                &ctx.ep,
                &ctx.group,
                &ctx.labels,
                &msgs,
                &arity,
                ring.bits(),
                &mut ctx.rng,
            )?;
            Ok(AShare::from_tensor(r))
        }
        PartyId::ModelProvider => {
            let flags = flags.ok_or_else(|| {
                ProtocolError::Desync("party 1 must hold the selection bits".into())
            })?;
            let choices: Vec<OtChoice> =
                flags.iter().map(|&s| OtChoice { choice: s as usize, n: 2 }).collect();
            let got =
                recv_batch(&ctx.ep, &ctx.group, &ctx.labels, &choices, ring.bits(), &mut ctx.rng)?;
            // y1 = s·x1 + (s·x0 − r). The selection is branch-free: the
            // flags are the receiver's secret sign bits.
            let x1s = x.as_tensor().as_slice();
            let mut data = vec![0u64; n];
            par_fill_indexed(&mut data, PAR_MIN_VALUES, |k| {
                let sx1 = ct::select(u64::from(flags[k]), x1s[k], 0);
                ring.add(sx1, got[k])
            });
            Ok(AShare::from_tensor(RingTensor::from_raw(ring, vec![n], data)?))
        }
    }
}

/// ABReLU: secure ReLU over shares on any ring.
///
/// The comparison runs on the value's low `Q1` bits — "the output sent to
/// ABReLU". Narrowing shares to `Q1` is an exact local operation (pure
/// masking), so the only failure mode is **deterministic**: when
/// `|x| ≥ 2^{ℓ1 − 1}` the narrowed value wraps and the detected sign
/// flips — the mechanism behind the paper's low-bit accuracy cliff
/// (Tables 7–8). The selection (zeroing or MUX) is applied to the
/// original-ring share, so the result stays on `x`'s ring.
///
/// # Errors
///
/// Propagates transport/OT failures.
pub fn abrelu(ctx: &mut PartyContext, x: &AShare) -> Result<AShare, ProtocolError> {
    let mode = ctx.cfg.relu_mode;
    let q1 = ctx.q1();
    let cmp_view = if x.ring() == q1 { x.clone() } else { x.narrow(q1) };
    let signs = secure_sign(ctx, &cmp_view, mode)?;
    match mode {
        ReluMode::RevealedSign => {
            let flags = signs.flags.ok_or_else(|| {
                ProtocolError::Desync("revealed mode yielded no sign flags in abrelu".into())
            })?;
            let ring = x.ring();
            // Branch-free zeroing: on the receiver the flags are locally
            // computed secrets (revealed only through the T_m exchange).
            let data: Vec<u64> = x
                .as_tensor()
                .iter()
                .zip(&flags)
                .map(|(&xs, &s)| ct::select(u64::from(s), xs, 0))
                .collect();
            Ok(AShare::from_tensor(RingTensor::from_raw(ring, x.shape().to_vec(), data)?))
        }
        ReluMode::MaskedMux => {
            let mux = ctx.span_begin("mux", CAT_STAGE, &[]);
            let out = mux_by_receiver(ctx, signs.flags.as_deref(), x)?;
            ctx.span_end(mux);
            // Preserve the original shape.
            let mut t = out.into_tensor();
            t.reshape(x.shape().to_vec())?;
            Ok(AShare::from_tensor(t))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run_pair;
    use crate::ProtocolConfig;
    use aq2pnn_ring::Ring;
    use aq2pnn_sharing::a2b::split_groups;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Plaintext reference for the code-combination rule, exhaustive on an
    /// 8-bit ring: for every (x_i, x_j), codes computed locally must yield
    /// sign((x_i+x_j) mod Q).
    #[test]
    fn sign_rule_exhaustive_8bit() {
        let ring = Ring::new(8);
        for xi in (0..256u64).step_by(3) {
            for xj in (0..256u64).step_by(5) {
                let u = ring.neg(xi);
                let v = xj;
                let gu = split_groups(ring, u);
                let gv = split_groups(ring, v);
                let codes: Vec<u64> =
                    gu.iter().zip(&gv).map(|(a, b)| code(a.value, b.value)).collect();
                let x = ring.decode_signed(ring.add(xi, xj));
                assert_eq!(sign_from_codes(&codes), x > 0, "xi={xi} xj={xj} x={x} codes={codes:?}");
            }
        }
    }

    /// The paper's two worked examples (Sec. 4.4).
    #[test]
    fn paper_examples() {
        let ring = Ring::new(8);
        // (x_i, x_j) = (125, 7): x = −124 < 0.
        let codes = |xi: i64, xj: i64| -> Vec<u64> {
            let u = ring.neg(ring.encode_signed(xi));
            let v = ring.encode_signed(xj);
            split_groups(ring, u)
                .iter()
                .zip(&split_groups(ring, v))
                .map(|(a, b)| code(a.value, b.value))
                .collect()
        };
        assert!(!sign_from_codes(&codes(125, 7)));
        // (x_i, x_j) = (−2, −2): x = −4 < 0.
        assert!(!sign_from_codes(&codes(-2, -2)));
        // (x_i, x_j) = (100, −95): x = 5 > 0.
        assert!(sign_from_codes(&codes(100, -95)));
    }

    /// The per-ISA item kernel must reproduce the generic slot loop
    /// exactly: for every available ISA, ring width (monomorphized group
    /// counts 7/9/11/17 and dyn-fallback counts), schedule range, and
    /// subset shape, the flat OT message/arity buffers are identical.
    #[test]
    fn sender_codes_isa_independent() {
        let mut rng = StdRng::seed_from_u64(99);
        for bits in [4u32, 8, 12, 16, 20, 24, 32] {
            let ring = Ring::new(bits);
            let widths = group_widths(bits);
            let u_cnt = widths.len();
            let n = 33;
            let vals = RingTensor::random(ring, vec![n], &mut rng);
            let mut u_flat = Vec::new();
            split_groups_into(ring, vals.as_slice(), &widths, &mut u_flat);
            let subset: Vec<usize> = (0..n).step_by(3).collect();
            let ranges: [(usize, usize, Option<&[usize]>); 3] =
                [(0, u_cnt, None), (0, 2, None), (2, u_cnt, Some(&subset))];
            for (from, to, sub) in ranges {
                let (mut want_msgs, mut want_arity) = (Vec::new(), Vec::new());
                fill_sender_codes(
                    &u_flat,
                    u_cnt,
                    &widths,
                    from,
                    to,
                    sub,
                    IsaLevel::Scalar,
                    &mut want_msgs,
                    &mut want_arity,
                );
                // Cross-check the scalar kernel against a direct per-slot
                // evaluation of the Eq. 6 code.
                let items = sub.map_or(n, <[usize]>::len);
                let stride: usize = widths[from..to].iter().map(|&w| 1usize << w).sum();
                assert_eq!(want_msgs.len(), items * stride);
                for item in 0..items {
                    let v = sub.map_or(item, |s| s[item]);
                    let mut slot = item * stride;
                    for g in from..to {
                        let u = u_flat[v * u_cnt + g];
                        for l in 0..(1u8 << widths[g]) {
                            assert_eq!(want_msgs[slot], code(u, l), "bits={bits} g={g} l={l}");
                            slot += 1;
                        }
                    }
                }
                let (mut msgs, mut arity) = (Vec::new(), Vec::new());
                fill_sender_codes_reference(
                    &u_flat, u_cnt, &widths, from, to, sub, &mut msgs, &mut arity,
                );
                assert_eq!(msgs, want_msgs, "reference bits={bits} from={from} to={to}");
                assert_eq!(arity, want_arity, "reference bits={bits}");
                for isa in IsaLevel::available() {
                    let (mut msgs, mut arity) = (Vec::new(), Vec::new());
                    fill_sender_codes(
                        &u_flat, u_cnt, &widths, from, to, sub, isa, &mut msgs, &mut arity,
                    );
                    assert_eq!(msgs, want_msgs, "isa={isa} bits={bits} from={from} to={to}");
                    assert_eq!(arity, want_arity, "isa={isa} bits={bits}");
                }
            }
        }
    }

    fn share_vals(ring: Ring, vals: &[i64], seed: u64) -> (AShare, AShare) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = RingTensor::from_signed(ring, vec![vals.len()], vals).unwrap();
        AShare::share(&t, &mut rng)
    }

    fn relu_case(cfg: ProtocolConfig, vals: Vec<i64>) {
        let ring = cfg.q1();
        let (s0, s1) = share_vals(ring, &vals, 77);
        let (o0, o1) = run_pair(&cfg, move |ctx| {
            let mine = match ctx.id {
                PartyId::User => s0.clone(),
                PartyId::ModelProvider => s1.clone(),
            };
            abrelu(ctx, &mine).unwrap()
        });
        let rec = AShare::recover(&o0, &o1).unwrap();
        let expect: Vec<i64> = vals.iter().map(|&v| v.max(0)).collect();
        assert_eq!(rec.to_signed(), expect, "cfg={cfg:?}");
    }

    #[test]
    fn abrelu_revealed_single_round() {
        relu_case(ProtocolConfig::paper(12), vec![5, -5, 0, 100, -100, 2047, -2048, 1, -1]);
    }

    #[test]
    fn abrelu_masked_mux() {
        let mut cfg = ProtocolConfig::paper(12);
        cfg.relu_mode = ReluMode::MaskedMux;
        relu_case(cfg, vec![5, -5, 0, 100, -100, 1, -1, 33]);
    }

    #[test]
    fn abrelu_lazy_rounds() {
        let mut cfg = ProtocolConfig::paper(12);
        cfg.relu_rounds = ReluRounds::Lazy;
        relu_case(cfg, vec![7, -7, 0, 512, -512, 1023, -1024, 3]);
    }

    #[test]
    fn abrelu_randomized_many_widths() {
        use rand::Rng;
        for bits in [8u32, 10, 13, 16] {
            let cfg = ProtocolConfig::paper(bits.max(6));
            let ring = cfg.q1();
            let mut rng = StdRng::seed_from_u64(u64::from(bits));
            let vals: Vec<i64> =
                (0..50).map(|_| rng.gen_range(ring.min_signed()..=ring.max_signed())).collect();
            relu_case(cfg, vals);
        }
    }

    #[test]
    fn lazy_mode_reduces_ot_traffic_for_decided_values() {
        // Values whose quadrant decides early should cost less in lazy mode.
        let mk = |rounds: ReluRounds| {
            let mut cfg = ProtocolConfig::paper(16);
            cfg.relu_rounds = rounds;
            // Values with large magnitude: second bit differs frequently.
            let vals: Vec<i64> = (0..64).map(|i| if i % 2 == 0 { 20000 } else { -20000 }).collect();
            let ring = cfg.q1();
            let (s0, s1) = share_vals(ring, &vals, 9);
            let (o0, _) = run_pair(&cfg, move |ctx| {
                let mine = match ctx.id {
                    PartyId::User => s0.clone(),
                    PartyId::ModelProvider => s1.clone(),
                };
                let _ = abrelu(ctx, &mine).unwrap();
                ctx.ep.stats().total_bytes()
            });
            o0
        };
        let single = mk(ReluRounds::Single);
        let lazy = mk(ReluRounds::Lazy);
        // Not guaranteed for every value mix, but for this one lazy must
        // not be wildly worse; record the relationship.
        assert!(lazy < single * 2, "lazy={lazy} single={single}");
    }

    #[test]
    fn secure_sign_rejects_non_q1_shares() {
        // Release builds used to skip this precondition entirely (it was a
        // debug_assert); it is now a hard protocol error on both parties.
        let cfg = ProtocolConfig::paper(12);
        let wrong = cfg.q2(); // shares on the MAC ring, not the Q1 carrier
        let (s0, s1) = share_vals(wrong, &[1, -2, 3], 5);
        let (r0, r1) = run_pair(&cfg, move |ctx| {
            let mine = match ctx.id {
                PartyId::User => s0.clone(),
                PartyId::ModelProvider => s1.clone(),
            };
            secure_sign(ctx, &mine, ReluMode::RevealedSign).err()
        });
        for err in [r0, r1] {
            match err {
                Some(ProtocolError::RingMismatch { expected, got }) => {
                    assert_eq!(expected, cfg.q1().bits());
                    assert_eq!(got, wrong.bits());
                }
                other => panic!("expected RingMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn mux_computes_selected_product() {
        let cfg = ProtocolConfig::paper(16);
        let ring = cfg.q1();
        let vals = vec![100i64, -200, 300, -400];
        let flags = vec![1u8, 0, 0, 1];
        let (s0, s1) = share_vals(ring, &vals, 13);
        let fl = flags.clone();
        let (o0, o1) = run_pair(&cfg, move |ctx| {
            let mine = match ctx.id {
                PartyId::User => s0.clone(),
                PartyId::ModelProvider => s1.clone(),
            };
            let f = if ctx.id == PartyId::ModelProvider { Some(&fl[..]) } else { None };
            mux_by_receiver(ctx, f, &mine).unwrap()
        });
        let rec = AShare::recover(&o0, &o1).unwrap();
        assert_eq!(rec.to_signed(), vec![100, 0, 0, -400]);
    }
}
