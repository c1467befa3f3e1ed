//! Multi-producer/multi-consumer stress for [`DealerPool`]: the always-on
//! companion to the `cfg(loom)` models (which explore small schedules
//! exhaustively; this hammers big ones probabilistically and runs in every
//! plain `cargo test`, including the ThreadSanitizer CI job).
//!
//! Several consumer threads drain one slot while the background dealer
//! refills under backpressure (queue depth ≪ total takes). The invariants
//! under test are exactly the dealer's documented contract:
//!
//! * **stream order**: the k-th take (globally, and hence per consumer in
//!   subsequence) is the k-th element of the lane's RNG stream — no
//!   reorder, duplication, or loss across the queue/inline-fallback race;
//! * **no lost wakeups**: after the storm the refill loop must rewarm the
//!   queue to full depth within a generous deadline.

use aq2pnn::dealer::{DealerConfig, DealerPool, ExhaustionPolicy, ExpandFn};
use aq2pnn::{PartyContext, ProtocolConfig};
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_sharing::dealer::{LaneTriple, TripleDealer};
use aq2pnn_sharing::PartyId;
use aq2pnn_transport::duplex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const CONSUMERS: usize = 4;
const TAKES_PER_CONSUMER: usize = 24;
const TOTAL: usize = CONSUMERS * TAKES_PER_CONSUMER;
const DEPTH: usize = 4; // ≪ TOTAL: the refill loop parks and re-wakes constantly

#[test]
fn mpmc_storm_preserves_stream_order_and_wakeups() {
    let cfg = ProtocolConfig::paper(16);
    let (e0, _e1) = duplex();
    let ctx = PartyContext::new(PartyId::User, e0, cfg, None);

    let mut dealer = TripleDealer::from_seed(0xdea1e5);
    // The provider's half: it forms `Z = expand(A) ⊗ B` on every draw, so
    // the refill loop does real GEMM work while the consumers race it.
    let (lane, _b_share) =
        dealer.expanded_lane(PartyId::ModelProvider, Ring::new(16), &[1, 4], &[4, 3]);

    // The lane's RNG stream *is* the ground truth: a clone of the lane
    // replays exactly the material the pool will hand out.
    let mut reference = lane.clone();
    let expected: Vec<LaneTriple> = (0..TOTAL).map(|_| reference.next(RingTensor::clone)).collect();
    let index_of = |t: &LaneTriple| expected.iter().position(|e| e == t);

    let expand: ExpandFn = Box::new(RingTensor::clone);
    let pool = DealerPool::new(
        &ctx,
        vec![("fc0".to_string(), lane, expand)],
        DealerConfig { depth: DEPTH, policy: ExhaustionPolicy::GenerateInline },
    );
    assert!(pool.wait_warm(Duration::from_secs(10)), "pool never warmed before the storm");

    let slot = &pool.slots()[0];
    let remaining = AtomicUsize::new(TOTAL);
    let per_consumer: Vec<Vec<LaneTriple>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let remaining = &remaining;
                scope.spawn(move || {
                    let mut got = Vec::with_capacity(TAKES_PER_CONSUMER);
                    while remaining
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok()
                    {
                        got.push(slot.take().expect("GenerateInline take never fails"));
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("consumer panicked")).collect()
    });

    // Every consumer's takes sit at strictly increasing stream positions,
    // and the union covers 0..TOTAL exactly once: nothing lost, nothing
    // duplicated, nothing reordered past another take.
    let mut seen = [false; TOTAL];
    for (c, takes) in per_consumer.iter().enumerate() {
        let mut last: Option<usize> = None;
        for t in takes {
            let idx = index_of(t).unwrap_or_else(|| {
                panic!("consumer {c} received a triple outside the lane's stream")
            });
            assert!(last.is_none_or(|l| idx > l), "consumer {c} saw stream order regress");
            assert!(!seen[idx], "stream position {idx} served twice");
            seen[idx] = true;
            last = Some(idx);
        }
    }
    assert!(seen.iter().all(|&s| s), "some stream positions were never served");

    // Lost-wakeup check: consumption notified the refill loop throughout;
    // after the storm it must top the queue back up unprompted.
    assert!(
        pool.wait_warm(Duration::from_secs(10)),
        "refill loop failed to rewarm after the storm (lost wakeup)"
    );
}
