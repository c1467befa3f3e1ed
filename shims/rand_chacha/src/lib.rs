//! Offline stand-in for `rand_chacha`: [`ChaCha20Rng`] implemented with a
//! genuine ChaCha20 block function (IETF constants, 20 rounds) behind the
//! workspace's `rand` traits. Output streams are deterministic per seed,
//! which is all the 2PC simulator's correlated-randomness derivation needs;
//! they are not guaranteed to match upstream `rand_chacha` byte-for-byte.
//!
//! [`ChaCha20Rng::from_key`] takes a full 256-bit key; its stream is the
//! RFC 8439 keystream for that key with a zero nonce, starting at block 0
//! (pinned by the RFC's Appendix A.1 test vectors below).
//! `seed_from_u64` expands 64 bits into the key, so its key space is 2⁶⁴.
//!
//! Each refill computes [`BLOCKS`] consecutive blocks at once. The working
//! state is laid out lane-parallel — word `i` of all blocks side by side —
//! so the 20 rounds are plain loops over lanes that the compiler turns
//! into vector instructions; the output is the same keystream, block by
//! block, that a one-block-at-a-time implementation produces.

use rand::{RngCore, SeedableRng};

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Keystream blocks computed per refill.
const BLOCKS: usize = 4;
/// Keystream words buffered per refill.
const BUF_WORDS: usize = 16 * BLOCKS;

/// Word `i` of each of the [`BLOCKS`] blocks in flight.
type Row = [u32; BLOCKS];

/// A deterministic ChaCha20-based generator.
#[derive(Clone, Debug)]
pub struct ChaCha20Rng {
    key: [u32; 8],
    /// Block counter of the first block the next refill computes.
    counter: u64,
    /// [`BLOCKS`] keystream blocks in stream order.
    buf: [u32; BUF_WORDS],
    /// Next unread word in `buf`; `BUF_WORDS` means the buffer is exhausted.
    idx: usize,
}

#[inline]
fn add(x: Row, y: Row) -> Row {
    std::array::from_fn(|l| x[l].wrapping_add(y[l]))
}

#[inline]
fn xor_rotate(x: Row, y: Row, by: u32) -> Row {
    std::array::from_fn(|l| (x[l] ^ y[l]).rotate_left(by))
}

#[inline]
fn quarter_round(state: &mut [Row; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = add(state[a], state[b]);
    state[d] = xor_rotate(state[d], state[a], 16);
    state[c] = add(state[c], state[d]);
    state[b] = xor_rotate(state[b], state[c], 12);
    state[a] = add(state[a], state[b]);
    state[d] = xor_rotate(state[d], state[a], 8);
    state[c] = add(state[c], state[d]);
    state[b] = xor_rotate(state[b], state[c], 7);
}

impl ChaCha20Rng {
    /// A generator keyed with all 256 bits of `key`, read as eight
    /// little-endian words as in RFC 8439 §2.3.
    #[must_use]
    pub fn from_key(key: [u8; 32]) -> Self {
        let mut words = [0u32; 8];
        for (w, bytes) in words.iter_mut().zip(key.chunks_exact(4)) {
            *w = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        Self::from_key_words(words)
    }

    fn from_key_words(key: [u32; 8]) -> Self {
        ChaCha20Rng { key, counter: 0, buf: [0; BUF_WORDS], idx: BUF_WORDS }
    }

    /// Computes blocks `counter .. counter + BLOCKS` into `buf`.
    fn refill(&mut self) {
        let mut state = [[0u32; BLOCKS]; 16];
        for (row, &c) in state.iter_mut().zip(&CHACHA_CONSTANTS) {
            *row = [c; BLOCKS];
        }
        for (row, &k) in state[4..12].iter_mut().zip(&self.key) {
            *row = [k; BLOCKS];
        }
        let counters: [u64; BLOCKS] =
            std::array::from_fn(|lane| self.counter.wrapping_add(lane as u64));
        #[allow(clippy::cast_possible_truncation)]
        {
            state[12] = counters.map(|c| c as u32);
            state[13] = counters.map(|c| (c >> 32) as u32);
        }
        // Words 14/15 (nonce) stay zero: one stream per key.
        let initial = state;
        for _ in 0..10 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (i, (&row, &init)) in state.iter().zip(&initial).enumerate() {
            for (lane, word) in add(row, init).into_iter().enumerate() {
                self.buf[16 * lane + i] = word;
            }
        }
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
        self.idx = 0;
    }
}

impl SeedableRng for ChaCha20Rng {
    fn seed_from_u64(state: u64) -> Self {
        // Expand the 64-bit seed into a 256-bit key via SplitMix64.
        let mut sm = state;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            #[allow(clippy::cast_possible_truncation)]
            {
                pair[0] = z as u32;
                pair[1] = (z >> 32) as u32;
            }
        }
        Self::from_key_words(key)
    }
}

impl RngCore for ChaCha20Rng {
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        if let Some(&[lo, hi]) = self.buf.get(self.idx..self.idx + 2) {
            self.idx += 2;
            return u64::from(lo) | (u64::from(hi) << 32);
        }
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
    }

    /// Copies whole word pairs straight out of the block buffer; only a
    /// `u64` that straddles a refill goes through [`Self::next_u64`].
    fn fill_u64(&mut self, mut dest: &mut [u64]) {
        while !dest.is_empty() {
            if self.idx >= BUF_WORDS {
                self.refill();
            }
            let pairs = ((BUF_WORDS - self.idx) / 2).min(dest.len());
            if pairs == 0 {
                dest[0] = self.next_u64();
                dest = &mut dest[1..];
                continue;
            }
            let (head, rest) = dest.split_at_mut(pairs);
            let words = &self.buf[self.idx..self.idx + 2 * pairs];
            for (d, pair) in head.iter_mut().zip(words.chunks_exact(2)) {
                *d = u64::from(pair[0]) | (u64::from(pair[1]) << 32);
            }
            self.idx += 2 * pairs;
            dest = rest;
        }
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let v = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = ChaCha20Rng::seed_from_u64(42);
        let mut b = ChaCha20Rng::seed_from_u64(42);
        let mut c = ChaCha20Rng::seed_from_u64(43);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va[0], c.next_u64());
    }

    #[test]
    fn clone_continues_the_stream_identically() {
        let mut a = ChaCha20Rng::seed_from_u64(9);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// RFC 8439 Appendix A.1, test vector #1: zero key, zero nonce,
    /// block counter 0.
    #[test]
    fn rfc8439_a1_vector_1() {
        let mut rng = ChaCha20Rng::from_key([0; 32]);
        let mut out = [0u8; 64];
        rng.fill_bytes(&mut out);
        let want: [u8; 64] = [
            0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5, 0x53, 0x86,
            0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d, 0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc,
            0x8b, 0x77, 0x0d, 0xc7, 0xda, 0x41, 0x59, 0x7c, 0x51, 0x57, 0x48, 0x8d, 0x77, 0x24,
            0xe0, 0x3f, 0xb8, 0xd8, 0x4a, 0x37, 0x6a, 0x43, 0xb8, 0xf4, 0x15, 0x18, 0xa1, 0x1c,
            0xc3, 0x87, 0xb6, 0x69, 0xb2, 0xee, 0x65, 0x86,
        ];
        assert_eq!(out, want);
    }

    /// RFC 8439 Appendix A.1, test vector #3: key `00…01`, zero nonce,
    /// block counter 1 — pins the little-endian key word order and the
    /// counter step.
    #[test]
    fn rfc8439_a1_vector_3() {
        let mut key = [0u8; 32];
        key[31] = 1;
        let mut rng = ChaCha20Rng::from_key(key);
        let mut out = [0u8; 128];
        rng.fill_bytes(&mut out);
        let want: [u8; 64] = [
            0x3a, 0xeb, 0x52, 0x24, 0xec, 0xf8, 0x49, 0x92, 0x9b, 0x9d, 0x82, 0x8d, 0xb1, 0xce,
            0xd4, 0xdd, 0x83, 0x20, 0x25, 0xe8, 0x01, 0x8b, 0x81, 0x60, 0xb8, 0x22, 0x84, 0xf3,
            0xc9, 0x49, 0xaa, 0x5a, 0x8e, 0xca, 0x00, 0xbb, 0xb4, 0xa7, 0x3b, 0xda, 0xd1, 0x92,
            0xb5, 0xc4, 0x2f, 0x73, 0xf2, 0xfd, 0x4e, 0x27, 0x36, 0x44, 0xc8, 0xb3, 0x61, 0x25,
            0xa6, 0x4a, 0xdd, 0xeb, 0x00, 0x6c, 0x13, 0xa0,
        ];
        assert_eq!(out[64..], want);
    }

    /// RFC 8439 §2.3's block function, one block at a time: the reference
    /// the lane-parallel refill must reproduce block for block.
    fn reference_block(key: [u32; 8], counter: u64) -> [u32; 16] {
        fn qr(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(16);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(12);
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(8);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(7);
        }
        let mut s = [0u32; 16];
        s[..4].copy_from_slice(&CHACHA_CONSTANTS);
        s[4..12].copy_from_slice(&key);
        s[12] = counter as u32;
        s[13] = (counter >> 32) as u32;
        let init = s;
        for _ in 0..10 {
            qr(&mut s, 0, 4, 8, 12);
            qr(&mut s, 1, 5, 9, 13);
            qr(&mut s, 2, 6, 10, 14);
            qr(&mut s, 3, 7, 11, 15);
            qr(&mut s, 0, 5, 10, 15);
            qr(&mut s, 1, 6, 11, 12);
            qr(&mut s, 2, 7, 8, 13);
            qr(&mut s, 3, 4, 9, 14);
        }
        for (w, i) in s.iter_mut().zip(init) {
            *w = w.wrapping_add(i);
        }
        s
    }

    /// Every block of a refill equals the one-block reference, including
    /// refills whose blocks carry the counter into its high word and wrap
    /// it around 2⁶⁴.
    #[test]
    fn refill_matches_the_one_block_reference() {
        let key = ChaCha20Rng::seed_from_u64(3).key;
        for start in [0, 1, 5, 0xFFFF_FFFE, 0xFFFF_FFFF, u64::MAX - 1] {
            let mut rng = ChaCha20Rng::from_key_words(key);
            rng.counter = start;
            rng.refill();
            for (lane, block) in rng.buf.chunks_exact(16).enumerate() {
                let want = reference_block(key, start.wrapping_add(lane as u64));
                assert_eq!(block, want, "counter {start} + {lane}");
            }
        }
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv(words: &[u64]) -> u64 {
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Fingerprints taken from the one-block-per-refill generator.
    #[test]
    fn long_streams_are_pinned() {
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let words: Vec<u64> = (0..1000).map(|_| rng.next_u64()).collect();
        assert_eq!(fnv(&words), 0x6081_34d8_fc78_d292);
        let mut rng = ChaCha20Rng::from_key([0x5a; 32]);
        rng.counter = 0xFFFF_FFFE;
        let words: Vec<u64> = (0..40).map(|_| rng.next_u64()).collect();
        assert_eq!(fnv(&words), 0xec64_b631_fc33_c939);
    }

    /// `fill_u64` is a `next_u64` loop: from every start offset in the
    /// first two buffers (odd ones included, whose words straddle a
    /// refill), for lengths up to three buffers, and `next_u32` carries on
    /// from where it stopped.
    #[test]
    fn fill_u64_equals_a_next_u64_loop() {
        for skip in 0..=2 * BUF_WORDS {
            for len in [0, 1, 2, 7, BUF_WORDS / 2 - 1, BUF_WORDS / 2, BUF_WORDS + 3, 3 * BUF_WORDS]
            {
                let mut bulk = ChaCha20Rng::seed_from_u64(11);
                let mut single = bulk.clone();
                for _ in 0..skip {
                    bulk.next_u32();
                    single.next_u32();
                }
                let mut got = vec![0u64; len];
                bulk.fill_u64(&mut got);
                let want: Vec<u64> = (0..len).map(|_| single.next_u64()).collect();
                assert_eq!(got, want, "skip {skip}, len {len}");
                for _ in 0..3 {
                    assert_eq!(bulk.next_u32(), single.next_u32(), "skip {skip}, len {len}");
                }
            }
        }
    }

    #[test]
    fn block_function_is_stable_and_counter_sensitive() {
        let mut rng = ChaCha20Rng::seed_from_u64(0);
        rng.counter = 1;
        rng.refill();
        let first = rng.buf;
        rng.counter = 1;
        rng.refill();
        let again = rng.buf;
        rng.counter = 2;
        rng.refill();
        assert_eq!(first, again);
        assert_ne!(first, rng.buf);
    }
}
