//! Property test: a batched OT delivers exactly the chosen slots.
//!
//! For random batch geometries (mixed arities, message widths, group
//! sizes), the receiver of one flat `send_batch_flat` / `recv_batch` pair
//! must get exactly `msgs[offset_k + choice_k]` (masked to the message
//! width) for every item `k`, and both transcripts must be exactly the
//! packed sizes of the three protocol messages: `r̂_i` and the encrypted
//! slots from the sender, the `R_k` mask row from the receiver.

use aq2pnn_ot::{recv_batch, send_batch_flat, LabelTable, OtChoice, OtGroup};
use aq2pnn_transport::{duplex, packed_len, ChannelStats};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One full batched OT; returns the receiver's messages plus both
/// endpoints' transcripts.
fn run(
    bits: u32,
    arity: &[usize],
    msgs: &[u64],
    choices: &[OtChoice],
    msg_bits: u32,
    seed: u64,
) -> (Vec<u64>, ChannelStats, ChannelStats) {
    let group = OtGroup::power_of_two(bits);
    let labels = LabelTable::generate(4, &group, &mut StdRng::seed_from_u64(77));
    let (a, b) = duplex();
    let (g2, l2) = (group.clone(), labels.clone());
    let (m2, ar2) = (msgs.to_vec(), arity.to_vec());
    let h = std::thread::spawn(move || {
        send_batch_flat(&a, &g2, &l2, &m2, &ar2, msg_bits, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        a.stats()
    });
    let out = recv_batch(&b, &group, &labels, choices, msg_bits, &mut StdRng::seed_from_u64(!seed))
        .unwrap();
    let sender_stats = h.join().unwrap();
    (out, sender_stats, b.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn receiver_gets_exactly_its_choices_at_packed_cost(
        (bits, msg_bits, seed, items) in (
            8u32..=16,
            2u32..=16,
            any::<u64>(),
            vec((1usize..=4, any::<u64>(), any::<u64>()), 1..300),
        )
    ) {
        // Build a mixed-arity batch from the drawn geometry.
        let mut arity = Vec::new();
        let mut msgs = Vec::new();
        let mut choices = Vec::new();
        for &(n, fill, pick) in &items {
            arity.push(n);
            for t in 0..n as u64 {
                msgs.push(fill.wrapping_mul(t + 1));
            }
            choices.push(OtChoice { choice: (pick % n as u64) as usize, n });
        }
        let (out, send, recv) = run(bits, &arity, &msgs, &choices, msg_bits, seed);
        // The receiver learns exactly its chosen slot of every item.
        let mask = if msg_bits == 64 { u64::MAX } else { (1u64 << msg_bits) - 1 };
        prop_assert_eq!(out.len(), choices.len());
        let mut offset = 0usize;
        for (k, c) in choices.iter().enumerate() {
            prop_assert_eq!(out[k], msgs[offset + c.choice] & mask, "item {} choice {}", k, c.choice);
            offset += c.n;
        }
        // Transcripts: the sender sends r̂_i then every encrypted slot, the
        // receiver sends one R_k per item — nothing else, at packed width.
        let to_receiver = packed_len(bits, 1) + packed_len(msg_bits, msgs.len());
        let to_sender = packed_len(bits, choices.len());
        prop_assert_eq!(send.bytes_sent, to_receiver as u64);
        prop_assert_eq!(send.messages_sent, 2);
        prop_assert_eq!(send.bytes_received, to_sender as u64);
        prop_assert_eq!(send.messages_received, 1);
        prop_assert_eq!(recv.bytes_sent, to_sender as u64);
        prop_assert_eq!(recv.messages_sent, 1);
        prop_assert_eq!(recv.bytes_received, to_receiver as u64);
        prop_assert_eq!(recv.messages_received, 2);
    }
}
