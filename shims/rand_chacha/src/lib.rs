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

use rand::{RngCore, SeedableRng};

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A deterministic ChaCha20-based generator.
#[derive(Clone, Debug)]
pub struct ChaCha20Rng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    /// Next unread word in `buf`; 16 means the buffer is exhausted.
    idx: usize,
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
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
        ChaCha20Rng { key: words, counter: 0, buf: [0; 16], idx: 16 }
    }

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        #[allow(clippy::cast_possible_truncation)]
        {
            state[12] = self.counter as u32;
            state[13] = (self.counter >> 32) as u32;
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
        for (w, &init) in state.iter_mut().zip(&initial) {
            *w = w.wrapping_add(init);
        }
        self.buf = state;
        self.counter = self.counter.wrapping_add(1);
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
        ChaCha20Rng { key, counter: 0, buf: [0; 16], idx: 16 }
    }
}

impl RngCore for ChaCha20Rng {
    fn next_u32(&mut self) -> u32 {
        if self.idx >= 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
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
