//! AS-GEMM: arithmetic-share general matrix multiplication (paper
//! Sec. 4.1.2, Figs. 2–3).
//!
//! Ciphertext×ciphertext multiplication opens the Beaver masks
//! `E = IN − A`, `F = W − B` and evaluates paper Eq. 1 locally:
//!
//! ```text
//! OUT_i = −i·E⊗F + IN_i⊗F + E⊗W_i + Z_i      (i ∈ {0, 1})
//!       = (IN_i − i·E)⊗F + E⊗W_i + Z_i
//! ```
//!
//! The second line is the same value mod `2^ℓ` (ring arithmetic
//! distributes), and it is how `eq1` evaluates it: two GEMMs per party,
//! not three. `F` and `W_i` are the right operands; for a prepared model
//! both are session constants, demoted once to the accumulator width as
//! [`MatRhs`] at bind, so the online pass never re-narrows them.
//!
//! The hardware realizes this with a `BLOCK_IN × BLOCK_OUT` array of C-C
//! multiplication units at initiation interval 1; functionally the array
//! computes exactly [`secure_matmul`], and [`cc_mul_unit`] is the scalar
//! Fig. 2(b) unit used by the worked example of Fig. 3.

use crate::{PartyContext, ProtocolError};
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_sharing::beaver::{MatRhs, TripleShare};
use aq2pnn_sharing::dealer::LaneTriple;
use aq2pnn_sharing::{AShare, PartyId};

/// The scalar C-C multiplication unit of paper Fig. 2(b):
/// `−i·e·f + in_i·f + e·w_i + z_i` on the ring.
#[must_use]
pub fn cc_mul_unit(
    ring: Ring,
    party: PartyId,
    in_i: u64,
    w_i: u64,
    e: u64,
    f: u64,
    z_i: u64,
) -> u64 {
    let ef = ring.mul(e, f);
    let neg_ief = if party.index() == 1 { ring.neg(ef) } else { 0 };
    let mut acc = neg_ief;
    acc = ring.add(acc, ring.mul(in_i, f));
    acc = ring.add(acc, ring.mul(e, w_i));
    ring.add(acc, z_i)
}

/// Secure matrix multiplication `⟦OUT⟧ ← ⟦IN⟧ ⊗ ⟦W⟧` over additive shares.
///
/// Consumes one matrix Beaver triple from the party's dealer stream and
/// one round of simultaneous exchange (the masked `E` and `F` matrices,
/// sent together, bit-packed at the ring width — the conv-layer "Data
/// Exchange" of paper Sec. 5.1).
///
/// Both parties must call this in lockstep with share tensors of matching
/// shapes: `in_share [m,k]`, `w_share [k,n]`.
///
/// # Errors
///
/// Returns [`ProtocolError::Shape`] on malformed operands,
/// [`ProtocolError::Transport`] if the peer disconnects, or
/// [`ProtocolError::Desync`] if the peer's message has the wrong size.
pub fn secure_matmul(
    ctx: &mut PartyContext,
    in_share: &AShare,
    w_share: &AShare,
) -> Result<AShare, ProtocolError> {
    let ring = in_share.ring();
    let (ishape, wshape) = (in_share.shape(), w_share.shape());
    if ishape.len() != 2 || wshape.len() != 2 || ishape[1] != wshape[0] || ring != w_share.ring() {
        return Err(ProtocolError::Shape(aq2pnn_ring::ShapeError::ShapeMismatch {
            lhs: ishape.to_vec(),
            rhs: wshape.to_vec(),
        }));
    }
    let (m, k, n) = (ishape[0], ishape[1], wshape[1]);

    // Offline material.
    let triple = ctx.next_matmul_triple(ring, m, k, n);

    // ⟦E⟧ = ⟦IN⟧ − ⟦A⟧, ⟦F⟧ = ⟦W⟧ − ⟦B⟧; open both in one exchange.
    let e_share = in_share.as_tensor().sub(&triple.a)?;
    let f_share = w_share.as_tensor().sub(&triple.b)?;
    let mut payload = Vec::with_capacity(m * k + k * n);
    payload.extend_from_slice(e_share.as_slice());
    payload.extend_from_slice(f_share.as_slice());
    let peer = ctx.ep.exchange_bits(&payload, ring.bits(), payload.len())?;
    if peer.len() != payload.len() {
        return Err(ProtocolError::Desync(format!(
            "gemm mask exchange: expected {} elements, got {}",
            payload.len(),
            peer.len()
        )));
    }
    let e = RingTensor::from_raw(
        ring,
        vec![m, k],
        e_share.as_slice().iter().zip(&peer[..m * k]).map(|(&a, &b)| ring.add(a, b)).collect(),
    )?;
    let f = RingTensor::from_raw(
        ring,
        vec![k, n],
        f_share.as_slice().iter().zip(&peer[m * k..]).map(|(&a, &b)| ring.add(a, b)).collect(),
    )?;

    let (f, w) = (MatRhs::new(&f)?, MatRhs::new(w_share.as_tensor())?);
    eq1(ctx.id, in_share.as_tensor(), &e, &f, &w, &triple.z)
}

/// Structured AS-GEMM with an offline weight mask:
/// `⟦OUT⟧ = expand(⟦IN⟧) ⊗ ⟦W⟧` where `expand` is a public linear map
/// (im2col for convolutions, identity for fully-connected layers).
///
/// Two communication refinements over [`secure_matmul`], both from the
/// paper (Sec. 4.1.2):
///
/// * the input mask `E = IN − A` is exchanged at **feature-map size** and
///   expanded locally — im2col's `k²` duplication never hits the wire;
/// * the weight mask `F = W − B` is static per model, so its one-time
///   opening is tagged with the `offline-f` phase (the pre-deployed
///   AS-WGT-MSK buffer) and excluded from online communication counts.
///
/// # Errors
///
/// Propagates transport failures; returns [`ProtocolError::Desync`] on
/// mismatched message sizes.
pub fn secure_matmul_expanded(
    ctx: &mut PartyContext,
    in_share: &AShare,
    w_share: &AShare,
    expand: impl Fn(&RingTensor) -> RingTensor,
) -> Result<AShare, ProtocolError> {
    let ring = in_share.ring();
    let wshape = w_share.shape().to_vec();
    if wshape.len() != 2 || ring != w_share.ring() {
        return Err(ProtocolError::Shape(aq2pnn_ring::ShapeError::ShapeMismatch {
            lhs: in_share.shape().to_vec(),
            rhs: wshape,
        }));
    }

    // Offline material: compact triple with Z = expand(A) ⊗ B.
    let triple = ctx.next_expanded_triple(ring, in_share.shape(), &[wshape[0], wshape[1]], &expand);

    // One-time opening of F = W − B (offline phase, pre-deployed mask).
    let w = MatRhs::new(w_share.as_tensor())?;
    let f = open_weight_mask(ctx, &w, &triple.b)?;

    let item_shape = in_share.shape().to_vec();
    let TripleShare { a, z, .. } = triple;
    secure_matmul_prepared_batch(
        ctx,
        in_share,
        1,
        &item_shape,
        &w,
        &MatRhs::new(&f)?,
        &[LaneTriple { a, z }],
        expand,
    )
}

/// Opens the weight mask `F = W − B` under the `offline-f` phase — the
/// pre-deployed AS-WGT-MSK buffer. Done once per layer: inline by
/// [`secure_matmul_expanded`], or hoisted to preparation time by
/// [`crate::prepared::PreparedModel`], after which repeated inferences
/// carry zero `offline-f` traffic.
///
/// The caller's current phase is restored before returning.
///
/// # Errors
///
/// Propagates transport failures; returns [`ProtocolError::Desync`] on
/// mismatched message sizes.
pub fn open_weight_mask(
    ctx: &mut PartyContext,
    w_share: &MatRhs<'_>,
    b_share: &RingTensor,
) -> Result<RingTensor, ProtocolError> {
    let ring = w_share.ring();
    // Scope guard (not a manual save/restore pair): the online label comes
    // back even on the error paths below, and nested scopes stay correct.
    let _offline = ctx.ep.phase_scope("offline-f");
    let f_share = w_share.sub(b_share)?;
    let f_peer = ctx.ep.exchange_bits(f_share.as_slice(), ring.bits(), f_share.len())?;
    if f_peer.len() != f_share.len() {
        return Err(ProtocolError::Desync("offline F exchange size mismatch".into()));
    }
    let f = RingTensor::from_raw(
        ring,
        f_share.shape().to_vec(),
        f_share.as_slice().iter().zip(&f_peer).map(|(&a, &b)| ring.add(a, b)).collect(),
    )?;
    Ok(f)
}

/// Online AS-GEMM for prepared models: the weight mask `F` was opened
/// once at preparation time ([`open_weight_mask`]) and, like this party's
/// weight share `W_i`, demoted once into a [`MatRhs`]; the triples come
/// from a resident [`aq2pnn_sharing::dealer::TripleLane`]. `b` images
/// share **one** `E` exchange (all masks concatenated, one round-trip) and
/// Eq. 1 is then evaluated on stacked operands whose row axis grows `b×`
/// — the ring kernels see `[b·m, k] ⊗ [k, n]`, so the round latency
/// amortizes across the batch.
///
/// `in_share` holds the `b` images' shares concatenated (flat,
/// `b · ∏item_shape` elements); `item_shape` is the per-image feature-map
/// shape the triples were drawn at, and `triples` holds one fresh triple
/// per image (stream order = image order — the batched pass consumes the
/// lane exactly as `b` sequential runs would, which is what makes batched
/// logits bit-identical to sequential ones).
///
/// # Errors
///
/// Propagates transport failures; returns [`ProtocolError::Desync`] on
/// mismatched message sizes and [`ProtocolError::Shape`] on malformed
/// operands.
#[allow(clippy::too_many_arguments)]
pub fn secure_matmul_prepared_batch(
    ctx: &mut PartyContext,
    in_share: &AShare,
    b: usize,
    item_shape: &[usize],
    w: &MatRhs<'_>,
    f: &MatRhs<'_>,
    triples: &[LaneTriple],
    expand: impl Fn(&RingTensor) -> RingTensor,
) -> Result<AShare, ProtocolError> {
    let ring = in_share.ring();
    let item: usize = item_shape.iter().product();
    if ring != w.ring() || ring != f.ring() || w.shape() != f.shape() {
        return Err(ProtocolError::Shape(aq2pnn_ring::ShapeError::ShapeMismatch {
            lhs: in_share.shape().to_vec(),
            rhs: w.shape().to_vec(),
        }));
    }
    if in_share.len() != b * item || triples.len() != b {
        return Err(ProtocolError::Shape(aq2pnn_ring::ShapeError::ShapeMismatch {
            lhs: in_share.shape().to_vec(),
            rhs: vec![b, item],
        }));
    }
    let xv = in_share.as_tensor().as_slice();

    // Online: open E = IN − A at feature-map size, all images in one
    // round-trip.
    let mut e_share = vec![0u64; b * item];
    for (i, triple) in triples.iter().enumerate() {
        if triple.a.len() != item {
            return Err(ProtocolError::Shape(aq2pnn_ring::ShapeError::ShapeMismatch {
                lhs: triple.a.shape().to_vec(),
                rhs: item_shape.to_vec(),
            }));
        }
        let a = triple.a.as_slice();
        // secrecy: allow(secret-index, "`i` counts triples — the public batch size — and `item` is the public per-image shape product; only share *values* are secret")
        for j in 0..item {
            e_share[i * item + j] = ring.sub(xv[i * item + j], a[j]);
        }
    }
    let e_peer = ctx.ep.exchange_bits(&e_share, ring.bits(), e_share.len())?;
    if e_peer.len() != e_share.len() {
        return Err(ProtocolError::Desync("online E exchange size mismatch".into()));
    }
    let e_open: Vec<u64> = e_share.iter().zip(&e_peer).map(|(&a, &p)| ring.add(a, p)).collect();

    // Per-image local expansion, stacked along the GEMM row axis, plus the
    // per-image Z shares stacked the same way.
    let mut e_stack: Vec<u64> = Vec::new();
    let mut in_stack: Vec<u64> = Vec::new();
    let mut z_stack: Vec<u64> = Vec::new();
    let mut rows_per_image = 0usize;
    let mut cols = 0usize;
    let n_out = w.shape()[1];
    for (i, triple) in triples.iter().enumerate() {
        // secrecy: allow(secret-index, "slice bounds are image offsets from the public batch position `i` and public shape product `item`")
        let e_img = RingTensor::from_raw(
            ring,
            item_shape.to_vec(),
            e_open[i * item..(i + 1) * item].to_vec(),
        )?;
        // secrecy: allow(secret-index, "same public image offsets as the E slice above")
        let x_img =
            RingTensor::from_raw(ring, item_shape.to_vec(), xv[i * item..(i + 1) * item].to_vec())?;
        let e_ex = expand(&e_img);
        let x_ex = expand(&x_img);
        // secrecy: allow(secret-branch, "first-iteration geometry capture; `i` is the public batch position, identical on both parties")
        if i == 0 {
            rows_per_image = e_ex.shape()[0];
            cols = e_ex.shape()[1];
            let total = b * rows_per_image;
            e_stack.reserve_exact(total * cols);
            in_stack.reserve_exact(total * cols);
            z_stack.reserve_exact(total * n_out);
        }
        e_stack.extend_from_slice(e_ex.as_slice());
        in_stack.extend_from_slice(x_ex.as_slice());
        z_stack.extend_from_slice(triple.z.as_slice());
    }
    let e = RingTensor::from_raw(ring, vec![b * rows_per_image, cols], e_stack)?;
    let in_cols = RingTensor::from_raw(ring, vec![b * rows_per_image, cols], in_stack)?;
    let z = RingTensor::from_raw(ring, vec![b * rows_per_image, n_out], z_stack)?;

    // Eq. 1 on the stacked operands. Rows are independent in a GEMM, so
    // the stacked product equals the concatenation of the per-image
    // products bit-for-bit.
    eq1(ctx.id, &in_cols, &e, f, w, &z)
}

/// Paper Eq. 1 for party `i`, as two GEMMs against the pre-demoted right
/// operands: `OUT_i = (X_i − i·E)⊗F + E⊗W_i + Z_i`. This equals the
/// paper's `−i·E⊗F + X_i⊗F + E⊗W_i + Z_i` mod `2^ℓ`, so the shares — and
/// everything later put on the wire — are those of the three-GEMM form.
fn eq1(
    party: PartyId,
    x: &RingTensor,
    e: &RingTensor,
    f: &MatRhs<'_>,
    w: &MatRhs<'_>,
    z: &RingTensor,
) -> Result<AShare, ProtocolError> {
    let xf = if party.index() == 1 { f.matmul(&x.sub(e)?)? } else { f.matmul(x)? };
    Ok(AShare::from_tensor(xf.add(&w.matmul(e)?)?.add(z)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run_pair;
    use crate::ProtocolConfig;
    use aq2pnn_sharing::beaver::ring_matmul;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn share_pair(ring: Ring, shape: Vec<usize>, vals: &[i64], seed: u64) -> (AShare, AShare) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = RingTensor::from_signed(ring, shape, vals).unwrap();
        AShare::share(&t, &mut rng)
    }

    #[test]
    fn cc_mul_unit_matches_fig3_structure() {
        // rec(out) must equal rec(in)·rec(w) for any sharing and triple.
        let ring = Ring::new(16);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let (x, w) = (ring.sample(&mut rng), ring.sample(&mut rng));
            let (a, b) = (ring.sample(&mut rng), ring.sample(&mut rng));
            let z = ring.mul(a, b);
            // Shares.
            let (xi, ai, wi, zi) = (
                ring.sample(&mut rng),
                ring.sample(&mut rng),
                ring.sample(&mut rng),
                ring.sample(&mut rng),
            );
            let (xj, aj, wj, zj) =
                (ring.sub(x, xi), ring.sub(a, ai), ring.sub(w, wi), ring.sub(z, zi));
            let e = ring.sub(x, a);
            let f = ring.sub(w, b);
            let oi = cc_mul_unit(ring, PartyId::User, xi, wi, e, f, zi);
            let oj = cc_mul_unit(ring, PartyId::ModelProvider, xj, wj, e, f, zj);
            assert_eq!(ring.add(oi, oj), ring.mul(x, w));
            let _ = (ai, aj); // masks only enter through e
        }
    }

    #[test]
    fn secure_matmul_matches_plaintext() {
        let cfg = ProtocolConfig::paper(16);
        let ring = cfg.q1();
        let a_vals: Vec<i64> = (0..6).map(|i| i * 3 - 7).collect(); // 2x3
        let b_vals: Vec<i64> = (0..12).map(|i| 5 - i).collect(); // 3x4
        let (a0, a1) = share_pair(ring, vec![2, 3], &a_vals, 11);
        let (b0, b1) = share_pair(ring, vec![3, 4], &b_vals, 12);

        let (o0, o1) = run_pair(&cfg, move |ctx| {
            let (ins, ws) = match ctx.id {
                PartyId::User => (a0.clone(), b0.clone()),
                PartyId::ModelProvider => (a1.clone(), b1.clone()),
            };
            secure_matmul(ctx, &ins, &ws).unwrap()
        });

        let rec = AShare::recover(&o0, &o1).unwrap();
        let pa = RingTensor::from_signed(ring, vec![2, 3], &a_vals).unwrap();
        let pb = RingTensor::from_signed(ring, vec![3, 4], &b_vals).unwrap();
        assert_eq!(rec, ring_matmul(&pa, &pb).unwrap());
    }

    #[test]
    fn secure_matmul_counts_mask_exchange_bytes() {
        let cfg = ProtocolConfig::paper(16);
        let ring = cfg.q1();
        let (a0, a1) = share_pair(ring, vec![4, 4], &[1; 16], 3);
        let (b0, b1) = share_pair(ring, vec![4, 4], &[2; 16], 4);
        let (o0, _o1) = run_pair(&cfg, move |ctx| {
            let (ins, ws) = match ctx.id {
                PartyId::User => (a0.clone(), b0.clone()),
                PartyId::ModelProvider => (a1.clone(), b1.clone()),
            };
            let out = secure_matmul(ctx, &ins, &ws).unwrap();
            (out, ctx.ep.stats())
        });
        let (_, stats) = o0;
        // 32 elements (E 16 + F 16) at 16 bits = 64 bytes each way.
        assert_eq!(stats.bytes_sent, 64);
        assert_eq!(stats.bytes_received, 64);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let cfg = ProtocolConfig::paper(16);
        let ring = cfg.q1();
        let (a0, a1) = share_pair(ring, vec![2, 3], &[0; 6], 5);
        let (b0, b1) = share_pair(ring, vec![2, 3], &[0; 6], 6);
        let (r0, _r1) = run_pair(&cfg, move |ctx| {
            let (ins, ws) = match ctx.id {
                PartyId::User => (a0.clone(), b0.clone()),
                PartyId::ModelProvider => (a1.clone(), b1.clone()),
            };
            secure_matmul(ctx, &ins, &ws).is_err()
        });
        assert!(r0);
    }
}
