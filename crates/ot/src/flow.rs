//! The four-step OT-flow of paper Fig. 4 / Eqs. 2–5.
//!
//! ## Batched hot path
//!
//! The per-slot sender masks `r̂_i^{e2l(t)}` depend only on the slot index
//! `t`, never on the batch item — they are computed **once per batch** into
//! a key cache instead of once per item. The remaining per-item work (the
//! `(R_k ⊕ r̂_i^{e2l(t)})^{r_i}` encryption powers on the sender, the mask
//! rows and `r̂_i^{r_j}` decryption keys on the receiver) is pure and
//! independent across items, so it fans out across threads via
//! `aq2pnn-parallel` in contiguous chunks. All randomness is drawn
//! *serially before* the fan-out and every output slot is written by
//! exactly one thread, so results are bit-identical at any thread count and
//! the wire traffic (bytes, messages, rounds) never changes.
//!
//! [`send_batch_flat`] is the allocation-lean entry point: callers hand one
//! flat slot buffer plus per-item arities instead of a `Vec` per item.

use crate::{LabelTable, OtGroup};
use aq2pnn_parallel::par_fill_indexed;
use aq2pnn_transport::{Endpoint, TransportError};
use rand::Rng;
use std::error::Error;
use std::fmt;

/// Minimum encrypted slots each worker thread must have to justify a spawn
/// (one slot = one group exponentiation + XOR).
const PAR_MIN_SLOTS: usize = 512;
/// Minimum batch items per worker for the per-item mask/key passes.
const PAR_MIN_ITEMS: usize = 256;

/// Errors surfaced by the OT-flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OtError {
    /// The underlying channel failed.
    Transport(TransportError),
    /// A batch item requested more slots than the label table provides.
    SlotCountExceedsLabels {
        /// Requested slot count `N`.
        n: usize,
        /// Available labels `L`.
        labels: usize,
    },
    /// A receiver choice was outside its slot count.
    ChoiceOutOfRange {
        /// The invalid choice.
        choice: usize,
        /// The slot count of that item.
        n: usize,
    },
}

impl fmt::Display for OtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OtError::Transport(e) => write!(f, "ot transport failure: {e}"),
            OtError::SlotCountExceedsLabels { n, labels } => {
                write!(f, "ot item has {n} slots but the label table only has {labels}")
            }
            OtError::ChoiceOutOfRange { choice, n } => {
                write!(f, "ot choice {choice} out of range for {n} slots")
            }
        }
    }
}

impl Error for OtError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OtError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for OtError {
    fn from(e: TransportError) -> Self {
        OtError::Transport(e)
    }
}

/// One receiver-side batch item: pick message `choice` out of `n` offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OtChoice {
    /// Index of the message to learn.
    pub choice: usize,
    /// Number of messages the sender offers for this item (`(1, n)`-OT).
    pub n: usize,
}

/// The per-batch key cache: `r̂^{e2l(t)}` for every slot index `t` that
/// appears in the batch. Eliminates the per-item recomputation of the
/// label powers — they depend only on `t`.
fn label_powers(group: &OtGroup, labels: &LabelTable, r_hat: u64, slots: usize) -> Vec<u64> {
    (0..slots).map(|t| group.pow(r_hat, labels.e2l(t))).collect()
}

/// Sender side of a batched `(1, N)`-OT (party *i* of paper Sec. 4.3.1).
///
/// `batch[k]` is the message list of item `k`; messages are `msg_bits`-bit
/// values (the comparison codes of Eq. 6 use 2 bits). The call blocks until
/// the peer runs [`recv_batch`] with matching batch geometry.
///
/// Convenience wrapper over [`send_batch_flat`] for callers holding nested
/// message lists.
///
/// # Errors
///
/// Returns [`OtError`] on channel failure or if any item offers more slots
/// than the label table covers.
pub fn send_batch<R: Rng + ?Sized>(
    ep: &Endpoint,
    group: &OtGroup,
    labels: &LabelTable,
    batch: &[Vec<u64>],
    msg_bits: u32,
    rng: &mut R,
) -> Result<(), OtError> {
    let arity: Vec<usize> = batch.iter().map(Vec::len).collect();
    let msgs: Vec<u64> = batch.iter().flatten().copied().collect();
    send_batch_flat(ep, group, labels, &msgs, &arity, msg_bits, rng)
}

/// Sender side of a batched `(1, N)`-OT over one flat slot buffer: item `k`
/// owns the `arity[k]` consecutive slots of `msgs` after its predecessors —
/// the allocation-lean layout the nonlinear engine builds directly.
///
/// Following paper Eqs. 2–4 the sender
/// ① publishes `r̂_i = g^{r_i}`, ③ receives the receiver's mask matrix `R`
/// and encrypts slot `t` of item `k` under
/// `K_t = (R_k ⊕ r̂_i^{e2l(t)})^{r_i}` — the parenthesisation that makes
/// Eq. 4 unmask correctly (`R_k ⊕ r̂_i^{e2l(choice)} = g^{r_j}` when
/// `t = choice`, hence `K_choice = g^{r_i·r_j} = KEY_j` of Eq. 5).
///
/// The label powers `r̂_i^{e2l(t)}` are cached once per batch and the
/// per-slot encryption fans out across threads; outputs and wire traffic
/// are identical at every thread count.
///
/// # Errors
///
/// Returns [`OtError`] on channel failure or if any item offers more slots
/// than the label table covers.
///
/// # Panics
///
/// Panics if `arity` does not sum to `msgs.len()`.
pub fn send_batch_flat<R: Rng + ?Sized>(
    ep: &Endpoint,
    group: &OtGroup,
    labels: &LabelTable,
    msgs: &[u64],
    arity: &[usize],
    msg_bits: u32,
    rng: &mut R,
) -> Result<(), OtError> {
    let mut max_slots = 0usize;
    let mut total = 0usize;
    for &n in arity {
        if n > labels.len() {
            return Err(OtError::SlotCountExceedsLabels { n, labels: labels.len() });
        }
        max_slots = max_slots.max(n);
        total += n;
    }
    assert_eq!(total, msgs.len(), "arity must sum to the flat slot count");
    let fallback_before = crate::lut_fallback_hits();
    let ebits = group.element_bits();
    // Step ①: r̂_i = g^{r_i}.
    let r_i = group.sample_exponent(rng);
    let r_hat = group.pow_g(r_i);
    ep.send_bits(&[r_hat], ebits)?;

    // Step ③: receive R, encrypt every slot of every item. The slot mask
    // powers are per-batch (key cache); the per-slot `(·)^{r_i}` encryption
    // keys are item-independent work fanned out across threads over the
    // flat output buffer.
    let r_matrix = ep.recv_bits(ebits, arity.len())?;
    let slot_pows = label_powers(group, labels, r_hat, max_slots);
    let offsets = item_offsets(arity);
    let msg_mask = if msg_bits == 64 { u64::MAX } else { (1u64 << msg_bits) - 1 };
    let mut enc = vec![0u64; msgs.len()];
    aq2pnn_parallel::par_chunks_mut(&mut enc, PAR_MIN_SLOTS, |start, chunk| {
        // First item whose slot range covers `start`, then a cursor walk.
        let mut k = offsets.partition_point(|&o| o <= start) - 1;
        for (j, slot) in chunk.iter_mut().enumerate() {
            let idx = start + j;
            while idx >= offsets[k + 1] {
                k += 1;
            }
            let t = idx - offsets[k];
            let key = group.pow(r_matrix[k] ^ slot_pows[t], r_i);
            *slot = (msgs[idx] ^ key) & msg_mask;
        }
    });
    ep.send_bits(&enc, msg_bits)?;
    group.note_batch(
        arity.len(),
        total,
        crate::lut_fallback_hits().saturating_sub(fallback_before),
    );
    Ok(())
}

/// Exclusive prefix sums of `arity` (with a trailing total), mapping item
/// `k` to its slot range `offsets[k]..offsets[k+1]` in the flat buffer.
fn item_offsets(arity: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(arity.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &n in arity {
        acc += n;
        offsets.push(acc);
    }
    offsets
}

/// Receiver side of a batched `(1, N)`-OT (party *j*).
///
/// Learns exactly `batch[k].choice` for each item and nothing else; the
/// sender learns nothing about the choices. Blocks until the peer runs
/// [`send_batch`] / [`send_batch_flat`] with matching geometry.
///
/// The choice-label powers `r̂_i^{e2l(c)}` are cached once per batch; mask
/// construction (Eq. 2) and slot decryption (Eq. 5) fan out across threads
/// after all `r_j` randomness is drawn serially, keeping outputs and wire
/// traffic thread-count-independent.
///
/// # Errors
///
/// Returns [`OtError`] on channel failure, invalid choices, or a ciphertext
/// message shorter than the batch geometry requires.
pub fn recv_batch<R: Rng + ?Sized>(
    ep: &Endpoint,
    group: &OtGroup,
    labels: &LabelTable,
    batch: &[OtChoice],
    msg_bits: u32,
    rng: &mut R,
) -> Result<Vec<u64>, OtError> {
    let mut max_slots = 0usize;
    for c in batch {
        if c.n > labels.len() {
            return Err(OtError::SlotCountExceedsLabels { n: c.n, labels: labels.len() });
        }
        // secrecy: allow(secret-branch, "validates the receiver's own choice against the public slot count; the secret never leaves this party and an abort only reflects the caller's malformed input")
        if c.choice >= c.n {
            return Err(OtError::ChoiceOutOfRange { choice: c.choice, n: c.n });
        }
        max_slots = max_slots.max(c.n);
    }
    let fallback_before = crate::lut_fallback_hits();
    let ebits = group.element_bits();
    // Step ①: receive r̂_i.
    let r_hat = ep.recv_bits(ebits, 1)?[0];

    // Step ②: R_k = r̂_i^{e2l(choice_k)} ⊕ g^{r_j(k)}  (Eq. 2). Randomness
    // first (serial, deterministic draw order), then the pure mask math in
    // parallel.
    let r_j: Vec<u64> = batch.iter().map(|_| group.sample_exponent(rng)).collect();
    let choice_pows = label_powers(group, labels, r_hat, max_slots);
    let mut r_matrix = vec![0u64; batch.len()];
    par_fill_indexed(&mut r_matrix, PAR_MIN_ITEMS, |k| {
        // secrecy: allow(secret-index, "the choice indexes a table local to the receiver, who owns the secret; the wire value R_k is masked by a fresh uniform g^{r_j}")
        choice_pows[batch[k].choice] ^ group.pow_g(r_j[k])
    });
    ep.send_bits(&r_matrix, ebits)?;

    // Step ④: decrypt the chosen slot with KEY_j = r̂_i^{r_j}  (Eq. 5).
    // Only one slot per item is ever used, so the chosen slots are pulled
    // straight out of the packed wire bytes instead of unpacking the
    // sender's entire code matrix.
    let arity: Vec<usize> = batch.iter().map(|c| c.n).collect();
    let offsets = item_offsets(&arity);
    let total = offsets[offsets.len() - 1];
    let enc_bytes = ep.recv()?;
    // The bytes come straight off the peer: a short message is its fault,
    // reported like `Endpoint::recv_bits` reports one, not a local bug.
    if enc_bytes.len() < aq2pnn_transport::packed_len(msg_bits, total) {
        return Err(OtError::Transport(TransportError::Corrupt(format!(
            "short OT ciphertext message: {} bytes for {total} x {msg_bits}-bit slots",
            enc_bytes.len()
        ))));
    }
    let msg_mask = if msg_bits == 64 { u64::MAX } else { (1u64 << msg_bits) - 1 };
    let mut out = vec![0u64; batch.len()];
    par_fill_indexed(&mut out, PAR_MIN_ITEMS, |k| {
        let key = group.pow(r_hat, r_j[k]);
        let slot =
            aq2pnn_transport::unpack_bits_at(&enc_bytes, msg_bits, offsets[k] + batch[k].choice);
        (slot ^ key) & msg_mask
    });
    group.note_batch(
        batch.len(),
        total,
        crate::lut_fallback_hits().saturating_sub(fallback_before),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq2pnn_transport::duplex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(bits: u32, nlabels: usize) -> (OtGroup, LabelTable) {
        let g = OtGroup::power_of_two(bits);
        let t = LabelTable::generate(nlabels, &g, &mut StdRng::seed_from_u64(77));
        (g, t)
    }

    fn run_ot(
        group: &OtGroup,
        labels: &LabelTable,
        batch: Vec<Vec<u64>>,
        choices: Vec<OtChoice>,
        msg_bits: u32,
    ) -> Vec<u64> {
        let (a, b) = duplex();
        let (g2, l2) = (group.clone(), labels.clone());
        let h = std::thread::spawn(move || {
            send_batch(&a, &g2, &l2, &batch, msg_bits, &mut StdRng::seed_from_u64(1)).unwrap();
        });
        let out = recv_batch(&b, group, labels, &choices, msg_bits, &mut StdRng::seed_from_u64(2))
            .unwrap();
        h.join().unwrap();
        out
    }

    #[test]
    fn batch_metrics_recorded_per_batch() {
        let (mut g, t) = setup(16, 4);
        let reg = aq2pnn_obs::MetricsRegistry::new();
        g.attach_metrics(&reg);
        // Receiver side uses the attached group; 3 items × 2 slots each.
        let batch = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let choices = (0..3).map(|_| OtChoice { choice: 1, n: 2 }).collect();
        let out = run_ot(&g, &t, batch, choices, 8);
        assert_eq!(out, vec![2, 4, 6]);
        let snap = reg.snapshot();
        // run_ot clones the group for the sender thread, so both sides
        // share the handles: one send batch + one recv batch.
        assert_eq!(snap.counters["ot.batches"], 2);
        assert_eq!(snap.counters["ot.batches_lut"], 2, "ℓ=16 group is LUT-backed");
        assert_eq!(snap.counters["ot.lut_fallback_pows"], 0, "hot path must stay on the LUT");
        let items = &snap.histograms["ot.batch_items"];
        assert_eq!(items.count, 2);
        assert!((items.sum - 6.0).abs() < 1e-9, "3 items per side");
        let slots = &snap.histograms["ot.batch_slots"];
        assert!((slots.sum - 12.0).abs() < 1e-9, "6 slots per side");
    }

    #[test]
    fn one_of_two() {
        let (g, t) = setup(16, 4);
        for choice in 0..2 {
            let out = run_ot(&g, &t, vec![vec![5, 9]], vec![OtChoice { choice, n: 2 }], 8);
            assert_eq!(out, vec![[5u64, 9][choice]]);
        }
    }

    #[test]
    fn one_of_four_all_choices() {
        let (g, t) = setup(16, 4);
        let msgs = vec![1u64, 2, 3, 0];
        for choice in 0..4 {
            let out = run_ot(&g, &t, vec![msgs.clone()], vec![OtChoice { choice, n: 4 }], 2);
            assert_eq!(out, vec![msgs[choice]]);
        }
    }

    #[test]
    fn batched_mixed_arity() {
        let (g, t) = setup(12, 4);
        let batch = vec![vec![10, 20], vec![1, 2, 3, 0], vec![7, 8]];
        let choices = vec![
            OtChoice { choice: 1, n: 2 },
            OtChoice { choice: 2, n: 4 },
            OtChoice { choice: 0, n: 2 },
        ];
        assert_eq!(run_ot(&g, &t, batch, choices, 8), vec![20, 3, 7]);
    }

    /// The nested and flat sender entry points produce byte-identical wire
    /// transcripts given the same randomness.
    #[test]
    fn flat_and_nested_senders_agree() {
        let (g, t) = setup(12, 4);
        let batch = vec![vec![10u64, 20], vec![1, 2, 3, 0], vec![7, 8]];
        let choices = vec![
            OtChoice { choice: 1, n: 2 },
            OtChoice { choice: 2, n: 4 },
            OtChoice { choice: 0, n: 2 },
        ];
        let flat: Vec<u64> = batch.iter().flatten().copied().collect();
        let arity: Vec<usize> = batch.iter().map(Vec::len).collect();
        let (a, b) = duplex();
        let (g2, t2) = (g.clone(), t.clone());
        let h = std::thread::spawn(move || {
            send_batch_flat(&a, &g2, &t2, &flat, &arity, 8, &mut StdRng::seed_from_u64(1)).unwrap();
        });
        let out = recv_batch(&b, &g, &t, &choices, 8, &mut StdRng::seed_from_u64(2)).unwrap();
        h.join().unwrap();
        assert_eq!(out, run_ot(&g, &t, batch, choices, 8));
    }

    #[test]
    fn wide_messages() {
        let (g, t) = setup(16, 2);
        let out = run_ot(
            &g,
            &t,
            vec![vec![0xdead_beef, 0xcafe_f00d]],
            vec![OtChoice { choice: 1, n: 2 }],
            32,
        );
        assert_eq!(out, vec![0xcafe_f00d]);
    }

    #[test]
    fn prime_group_flow() {
        let g = OtGroup::prime((1 << 31) - 1, 7); // Mersenne prime 2^31-1
        let t = LabelTable::generate(4, &g, &mut StdRng::seed_from_u64(5));
        let out = run_ot(&g, &t, vec![vec![11, 22, 33, 44]], vec![OtChoice { choice: 3, n: 4 }], 8);
        assert_eq!(out, vec![44]);
    }

    #[test]
    fn choice_out_of_range_rejected() {
        let (g, t) = setup(8, 4);
        let (_a, b) = duplex();
        let err = recv_batch(
            &b,
            &g,
            &t,
            &[OtChoice { choice: 4, n: 4 }],
            8,
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap_err();
        assert_eq!(err, OtError::ChoiceOutOfRange { choice: 4, n: 4 });
    }

    /// A peer that sends a truncated ciphertext message gets the session a
    /// typed error on the receiver, not a panic in its worker.
    #[test]
    fn truncated_ciphertext_is_an_error_not_a_panic() {
        let (g, t) = setup(16, 4);
        let (a, b) = duplex();
        let ebits = g.element_bits();
        let h = std::thread::spawn(move || {
            // A well-formed step ① and ③ … except that only one of the
            // three items' ciphertexts is sent.
            a.send_bits(&[1], ebits).unwrap();
            let _r_matrix = a.recv_bits(ebits, 3).unwrap();
            a.send_bits(&[0; 4], 8).unwrap();
        });
        let choices = [OtChoice { choice: 1, n: 4 }; 3];
        let err = recv_batch(&b, &g, &t, &choices, 8, &mut StdRng::seed_from_u64(2)).unwrap_err();
        h.join().unwrap();
        assert!(matches!(err, OtError::Transport(TransportError::Corrupt(_))), "got {err:?}");
    }

    #[test]
    fn slots_beyond_labels_rejected() {
        let (g, t) = setup(8, 2);
        let (a, _b) = duplex();
        let err = send_batch(&g_send(&a), &g, &t, &[vec![0; 3]], 8, &mut StdRng::seed_from_u64(1))
            .unwrap_err();
        assert_eq!(err, OtError::SlotCountExceedsLabels { n: 3, labels: 2 });
    }

    fn g_send(ep: &Endpoint) -> Endpoint {
        ep.clone()
    }

    /// Non-transferability spot-check: a receiver that tries to decrypt a
    /// slot it did not choose (using its one key) gets garbage, not the
    /// message. (A functional check, not a security proof.)
    #[test]
    fn unchosen_slots_do_not_decrypt() {
        let (g, t) = setup(16, 4);
        let msgs = vec![0x11u64, 0x22, 0x33, 0x44];
        let (a, b) = duplex();
        let (g2, l2, m2) = (g.clone(), t.clone(), msgs.clone());
        let h = std::thread::spawn(move || {
            send_batch(&a, &g2, &l2, &[m2], 8, &mut StdRng::seed_from_u64(1)).unwrap();
        });
        // Reimplement the receiver to capture all ciphertext slots.
        let ebits = g.element_bits();
        let r_hat = b.recv_bits(ebits, 1).unwrap()[0];
        let choice = 1usize;
        let rj = g.sample_exponent(&mut StdRng::seed_from_u64(2));
        let r_val = g.pow(r_hat, t.e2l(choice)) ^ g.pow_g(rj);
        b.send_bits(&[r_val], ebits).unwrap();
        let enc = b.recv_bits(8, 4).unwrap();
        h.join().unwrap();
        let key = g.pow(r_hat, rj);
        // Chosen slot decrypts.
        assert_eq!((enc[choice] ^ key) & 0xff, msgs[choice]);
        // Others do not (with this key).
        let mut wrong = 0;
        for (i, &ct) in enc.iter().enumerate() {
            if i != choice && (ct ^ key) & 0xff != msgs[i] {
                wrong += 1;
            }
        }
        assert_eq!(wrong, 3, "unchosen slots must not decrypt under the receiver key");
    }

    #[test]
    fn communication_scales_with_group_bits() {
        // The ABReLU cost driver: OT traffic is proportional to element bits.
        for &(bits, expected_r_hat_bytes) in &[(16u32, 2u64), (32, 4)] {
            let (g, t) = setup(bits, 4);
            let (a, b) = duplex();
            let (g2, t2) = (g.clone(), t.clone());
            let h = std::thread::spawn(move || {
                send_batch(&a, &g2, &t2, &[vec![1, 2]], 2, &mut StdRng::seed_from_u64(1)).unwrap();
                a.stats()
            });
            recv_batch(
                &b,
                &g,
                &t,
                &[OtChoice { choice: 0, n: 2 }],
                2,
                &mut StdRng::seed_from_u64(2),
            )
            .unwrap();
            let stats = h.join().unwrap();
            // sender sends r_hat (1 elem) + 2 encrypted 2-bit slots (1 byte).
            assert_eq!(stats.bytes_sent, expected_r_hat_bytes + 1, "bits={bits}");
        }
    }
}
