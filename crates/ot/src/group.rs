//! The exponentiation group behind the OT-flow's Diffie–Hellman masking.

use aq2pnn_ring::Ring;
use rand::Rng;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Above this ring width the power-of-two group stops materializing its LUT
/// and falls back to square-and-multiply (a 2^22-entry table is the
/// practical ceiling for the ZCU104's BRAM anyway).
const LUT_MAX_BITS: u32 = 20;

/// Sign flag in a discrete-log table entry: the element is `−5^k` rather
/// than `5^k`.
const DLOG_NEG: u32 = 1 << 31;

/// Times a LUT-backed power-of-two group had to fall back to
/// square-and-multiply (see [`lut_fallback_hits`]).
static LUT_FALLBACK_HITS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of `pow` calls on LUT-backed groups that could *not*
/// be served from the tables (an even base — impossible inside the OT-flow,
/// where every mask is an odd residue). For ℓ ≤ 20 groups the hot path
/// must never hit the square-and-multiply fallback:
/// `tests/sign_exhaustive.rs::wide_ring_large_batch` asserts this count
/// stays flat across each engine run.
#[must_use]
pub fn lut_fallback_hits() -> u64 {
    LUT_FALLBACK_HITS.load(Ordering::Relaxed)
}

/// Materialized exponentiation tables of a power-of-two group — the
/// software mirror of the FPGA's BRAM LUT (paper Sec. 4.3.1).
#[derive(Debug)]
struct PowTables {
    /// `g^k` for `k < order`.
    powers: Vec<u64>,
    /// Discrete log of every odd residue, indexed by `x >> 1`: entry
    /// `k | DLOG_NEG?` means `x = ±5^k`. Lets [`OtGroup::pow`] serve
    /// arbitrary odd bases in O(1): `(±5^k)^e = (±1)^e · 5^{k·e mod ord}`.
    /// `None` on reference groups that deliberately keep the pre-cache
    /// square-and-multiply behaviour (see
    /// [`OtGroup::power_of_two_reference`]).
    dlog: Option<Vec<u32>>,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Odd residues mod `2^ℓ`; `⟨5⟩` is cyclic of order `2^{ℓ-2}`.
    PowerOfTwo {
        ring: Ring,
        /// The power/dlog tables, when small enough to materialize.
        tables: Option<Arc<PowTables>>,
    },
    /// `Z_p^*` for an odd prime `p < 2^62`, generator `g`.
    Prime { p: u64, g: u64 },
}

/// Per-batch OT metric handles (see [`OtGroup::attach_metrics`]). Kept in
/// an `Arc` so the group — which protocol code clones freely — shares one
/// set of counters across every clone.
#[derive(Debug)]
pub(crate) struct OtObs {
    pub(crate) reg: aq2pnn_obs::MetricsRegistry,
    /// OT batches executed (`ot.batches`).
    pub(crate) batches: aq2pnn_obs::Counter,
    /// Batches served by a LUT-backed group (`ot.batches_lut`).
    pub(crate) batches_lut: aq2pnn_obs::Counter,
    /// `pow` calls that missed the LUT during batches (`ot.lut_fallback_pows`).
    pub(crate) lut_fallback_pows: aq2pnn_obs::Counter,
}

/// A cyclic group `⟨g⟩` with fast exponentiation, the carrier of the
/// OT-flow's masks (`r̂_i = g^{r_i}`, paper Fig. 4).
#[derive(Clone)]
pub struct OtGroup {
    repr: Repr,
    order: u64,
    pub(crate) obs: Option<Arc<OtObs>>,
}

impl fmt::Debug for OtGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::PowerOfTwo { ring, tables } => f
                .debug_struct("OtGroup")
                .field("modulus", &format_args!("2^{}", ring.bits()))
                .field("generator", &5u64)
                .field("order", &self.order)
                .field("lut", &tables.is_some())
                .field("dlog", &tables.as_ref().is_some_and(|t| t.dlog.is_some()))
                .finish(),
            Repr::Prime { p, g } => f
                .debug_struct("OtGroup")
                .field("modulus", p)
                .field("generator", g)
                .field("order", &self.order)
                .finish(),
        }
    }
}

impl OtGroup {
    /// The paper's group: odd residues modulo `2^bits`, generated by 5
    /// (cyclic of order `2^{bits-2}`). For `bits ≤ 20` the full power table
    /// *and* its discrete-log inverse are materialized, mirroring the FPGA
    /// LUT: both `pow_g` and arbitrary-odd-base `pow` become table lookups.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `3..=64`.
    #[must_use]
    pub fn power_of_two(bits: u32) -> Self {
        Self::power_of_two_inner(bits, true)
    }

    /// Like [`OtGroup::power_of_two`] but without the discrete-log table:
    /// `pow_g` still uses the power LUT while `pow` takes the
    /// square-and-multiply path for every call — the pre-optimization
    /// behaviour, kept callable as the ground truth for regression tests.
    /// Protocol results are bit-identical, only slower.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `3..=64`.
    #[must_use]
    pub fn power_of_two_reference(bits: u32) -> Self {
        Self::power_of_two_inner(bits, false)
    }

    fn power_of_two_inner(bits: u32, with_dlog: bool) -> Self {
        assert!((3..=64).contains(&bits), "power-of-two OT group needs 3..=64 bits");
        let ring = Ring::new(bits);
        let order = 1u64 << (bits - 2);
        let tables = if bits <= LUT_MAX_BITS {
            let mut powers = Vec::with_capacity(order as usize);
            let mut acc = 1u64;
            for _ in 0..order {
                powers.push(acc);
                acc = ring.mul(acc, 5);
            }
            let dlog = with_dlog.then(|| {
                // Odd residues mod 2^ℓ = ⟨−1⟩ × ⟨5⟩: first log the ⟨5⟩
                // coset from the power table, then every still-unmapped odd
                // x is −5^k with k the log of −x.
                let mut dlog = vec![u32::MAX; 1usize << (bits - 1)];
                for (k, &p) in powers.iter().enumerate() {
                    dlog[(p >> 1) as usize] = k as u32;
                }
                for x in (1u64..(1 << bits)).step_by(2) {
                    let slot = (x >> 1) as usize;
                    if dlog[slot] == u32::MAX {
                        dlog[slot] = dlog[(ring.neg(x) >> 1) as usize] | DLOG_NEG;
                    }
                }
                dlog
            });
            Some(Arc::new(PowTables { powers, dlog }))
        } else {
            None
        };
        OtGroup { repr: Repr::PowerOfTwo { ring, tables }, order, obs: None }
    }

    /// A prime-field group `Z_p^*` with generator `g` and order `p − 1`.
    ///
    /// Provided to demonstrate the protocol is parametric in the group; the
    /// caller is responsible for choosing a safe `(p, g)`.
    ///
    /// # Panics
    ///
    /// Panics if `p < 3`, `p ≥ 2^62`, or `g` is not in `2..p`.
    #[must_use]
    pub fn prime(p: u64, g: u64) -> Self {
        assert!((3..1 << 62).contains(&p), "prime modulus out of supported range");
        assert!((2..p).contains(&g), "generator must be in 2..p");
        OtGroup { repr: Repr::Prime { p, g }, order: p - 1, obs: None }
    }

    /// Order of the cyclic subgroup: exponents live in `0..order`.
    #[must_use]
    pub fn order(&self) -> u64 {
        self.order
    }

    /// Whether this group serves exponentiations from materialized tables
    /// (power LUT + discrete-log inverse).
    #[must_use]
    pub fn lut_backed(&self) -> bool {
        match &self.repr {
            Repr::PowerOfTwo { tables, .. } => tables.as_ref().is_some_and(|t| t.dlog.is_some()),
            Repr::Prime { .. } => false,
        }
    }

    /// Number of bits needed to transmit one group element.
    #[must_use]
    pub fn element_bits(&self) -> u32 {
        match &self.repr {
            Repr::PowerOfTwo { ring, .. } => ring.bits(),
            Repr::Prime { p, .. } => 64 - p.leading_zeros(),
        }
    }

    /// `g^e` in the group.
    #[must_use]
    pub fn pow_g(&self, e: u64) -> u64 {
        match &self.repr {
            Repr::PowerOfTwo { ring, tables } => {
                // Power-of-two groups have a power-of-two order, so the
                // exponent reduction is a mask, not a division.
                let e = e & (self.order - 1);
                if let Some(t) = tables {
                    // secrecy: allow(secret-index, "exponent-indexed power LUT mirrors the paper's FPGA table (Sec. 4.3.1); cache-line leakage in the software model is an accepted deviation, see DESIGN.md §Secrecy discipline")
                    t.powers[e as usize]
                } else {
                    ring.pow(5, e)
                }
            }
            Repr::Prime { p, g } => mod_pow(*g, e % self.order, *p),
        }
    }

    /// `b^e` for an arbitrary base `b` (used on received masks, which may
    /// fall outside `⟨g⟩` after XOR mixing — exponentiation stays
    /// well-defined on the whole residue ring).
    ///
    /// For LUT-backed power-of-two groups every *odd* base is served from
    /// the tables via its discrete log (`b = ±5^k`, so
    /// `b^e = (±1)^e · 5^{k·e mod ord}`) — no square-and-multiply. All
    /// bases arising inside the OT-flow are odd (XOR of an even mixed mask
    /// with an odd group element), so the fallback never fires there;
    /// [`lut_fallback_hits`] counts the exceptions.
    #[must_use]
    pub fn pow(&self, b: u64, e: u64) -> u64 {
        match &self.repr {
            Repr::PowerOfTwo { ring, tables } => {
                // order = 2^{ℓ-2}: reduce exponents with a mask, not a div.
                let ord_mask = self.order - 1;
                if let Some(t) = tables {
                    if let Some(dlog) = &t.dlog {
                        // secrecy: allow(secret-branch, "base parity and the ±⟨5⟩ coset sign mirror the paper's FPGA dlog decomposition; software cache/branch leakage here is an accepted deviation, see DESIGN.md §Secrecy discipline")
                        // secrecy: allow(secret-index, "dlog and power LUTs are the paper's FPGA tables (Sec. 4.3.1); the software model accepts their access-pattern leakage, see DESIGN.md §Secrecy discipline")
                        if b & 1 == 1 {
                            let masked = b & ring.mask();
                            let entry = dlog[(masked >> 1) as usize];
                            let k = u64::from(entry & !DLOG_NEG);
                            // k, e < 2^18 for ℓ ≤ 20: the product fits u64.
                            // secrecy: allow(secret-index, "exponent-indexed power LUT, same FPGA-table deviation as above")
                            let mag = t.powers[((k * (e & ord_mask)) & ord_mask) as usize];
                            // secrecy: allow(secret-branch, "coset-sign fixup branch, same FPGA-table deviation as above")
                            return if entry & DLOG_NEG != 0 && e & 1 == 1 {
                                ring.neg(mag)
                            } else {
                                mag
                            };
                        }
                        LUT_FALLBACK_HITS.fetch_add(1, Ordering::Relaxed);
                    }
                }
                ring.pow(b, e & ord_mask)
            }
            Repr::Prime { p, .. } => mod_pow(b % *p, e % self.order, *p),
        }
    }

    /// Samples a uniform exponent in `0..order`.
    #[must_use]
    pub fn sample_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.order)
    }

    /// Binds this group (and its future clones) to `reg`: every OT batch
    /// run through it records batch counts, item/slot-size histograms and
    /// LUT hit/miss under the stable `ot.*` metric names. Recording is
    /// per **batch**, never per `pow` call, so the exponentiation hot path
    /// is untouched.
    pub fn attach_metrics(&mut self, reg: &aq2pnn_obs::MetricsRegistry) {
        self.obs = Some(Arc::new(OtObs {
            reg: reg.clone(),
            batches: reg.counter("ot.batches"),
            batches_lut: reg.counter("ot.batches_lut"),
            lut_fallback_pows: reg.counter("ot.lut_fallback_pows"),
        }));
    }

    /// Records one executed batch of `items` OT items over `slots` total
    /// message slots; `fallback_pows` is the number of LUT misses observed
    /// across the batch ([`lut_fallback_hits`] delta). No-op unless
    /// [`OtGroup::attach_metrics`] was called.
    pub(crate) fn note_batch(&self, items: usize, slots: usize, fallback_pows: u64) {
        let Some(obs) = &self.obs else { return };
        obs.batches.inc();
        if self.lut_backed() {
            obs.batches_lut.inc();
        }
        obs.lut_fallback_pows.add(fallback_pows);
        #[allow(clippy::cast_precision_loss)]
        {
            obs.reg.observe("ot.batch_items", items as f64);
            obs.reg.observe("ot.batch_slots", slots as f64);
        }
    }
}

/// Modular exponentiation, constant-time in `e`: the exponent is OT key
/// material, so the ladder runs a fixed 64 iterations and folds each bit
/// in with a branch-free select.
fn mod_pow(b: u64, e: u64, p: u64) -> u64 {
    let mut acc: u128 = 1;
    let mut base = u128::from(b % p);
    let pp = u128::from(p);
    for i in 0..64 {
        let keep = (u128::from((e >> i) & 1)).wrapping_neg();
        let folded = acc * base % pp;
        acc = (folded & keep) | (acc & !keep);
        base = base * base % pp;
    }
    acc as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn five_generates_order_two_to_l_minus_two() {
        let g = OtGroup::power_of_two(10);
        assert_eq!(g.order(), 256);
        // 5^order == 1, 5^(order/2) != 1 (cyclic of exactly that order).
        assert_eq!(g.pow(5, g.order()), g.pow_g(0));
        assert_ne!(g.pow(5, g.order() / 2), 1);
        // All powers distinct within the order.
        let mut seen = std::collections::HashSet::new();
        for e in 0..g.order() {
            assert!(seen.insert(g.pow_g(e)), "collision at exponent {e}");
        }
    }

    #[test]
    fn lut_and_fallback_agree() {
        let small = OtGroup::power_of_two(16); // has LUT
        let ring = Ring::new(16);
        for e in [0u64, 1, 2, 1000, 16383] {
            assert_eq!(small.pow_g(e), ring.pow(5, e));
        }
    }

    /// The discrete-log path must agree with square-and-multiply for every
    /// odd base and a sweep of exponents — including exponents beyond the
    /// group order (reduction) and bases outside ⟨5⟩ (the −5^k coset).
    #[test]
    fn dlog_pow_matches_reference_exhaustively() {
        for bits in [3u32, 4, 6, 8, 10] {
            let fast = OtGroup::power_of_two(bits);
            let slow = OtGroup::power_of_two_reference(bits);
            assert!(fast.lut_backed());
            assert!(!slow.lut_backed());
            for b in (1u64..(1 << bits)).step_by(2) {
                for e in 0..(2 * fast.order() + 3) {
                    assert_eq!(fast.pow(b, e), slow.pow(b, e), "bits={bits} b={b} e={e}");
                }
            }
        }
    }

    /// Odd bases never increment the fallback counter on LUT-backed groups;
    /// even bases do (and still compute the ring-correct power).
    #[test]
    fn fallback_counter_tracks_even_bases_only() {
        let g = OtGroup::power_of_two(8);
        let ring = Ring::new(8);
        let before = lut_fallback_hits();
        for b in (1u64..256).step_by(2) {
            let _ = g.pow(b, 37);
        }
        assert_eq!(lut_fallback_hits(), before, "odd bases must take the LUT path");
        assert_eq!(g.pow(6, 3), ring.pow(6, 3));
        assert!(lut_fallback_hits() > before, "even bases are counted fallbacks");
    }

    #[test]
    fn big_group_skips_lut() {
        let g = OtGroup::power_of_two(32);
        assert_eq!(g.pow_g(3), 125);
        assert_eq!(g.order(), 1 << 30);
        assert!(!g.lut_backed());
    }

    #[test]
    fn prime_group_basics() {
        // p = 2^61 - 1 is prime (Mersenne).
        let p = (1u64 << 61) - 1;
        let g = OtGroup::prime(p, 3);
        assert_eq!(g.order(), p - 1);
        // Fermat: g^(p-1) = 1.
        assert_eq!(g.pow(3, p - 1), 1);
        assert_eq!(g.pow_g(2), 9);
    }

    #[test]
    fn exponent_sampling_in_range() {
        let g = OtGroup::power_of_two(8);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(g.sample_exponent(&mut rng) < g.order());
        }
    }

    #[test]
    fn dh_agreement() {
        // The property the OT-flow rests on: (g^a)^b == (g^b)^a.
        let g = OtGroup::power_of_two(16);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let a = g.sample_exponent(&mut rng);
            let b = g.sample_exponent(&mut rng);
            assert_eq!(g.pow(g.pow_g(a), b), g.pow(g.pow_g(b), a));
        }
    }

    #[test]
    fn element_bits() {
        assert_eq!(OtGroup::power_of_two(16).element_bits(), 16);
        assert_eq!(OtGroup::prime(101, 2).element_bits(), 7);
    }
}
