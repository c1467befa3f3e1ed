//! Background workers and the sync facade.
//!
//! A session's online pass runs on one thread per party; concurrency comes
//! from serving several sessions at once, never from splitting one kernel
//! call across threads. What remains here is the long-lived [`Worker`]
//! (the server's per-session threads, the dealer's refill loop) and
//! [`sync`], the lock/atomic facade that swaps its std backend for loom's
//! under `--cfg loom` so those handshakes can be model-checked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sync;

use std::collections::VecDeque;
use std::sync::Arc;

use crate::sync::{AtomicU64, Condvar, Mutex, Ordering};

/// A boxed unit of work for a [`Worker`].
type Job = Box<dyn FnOnce() + Send + 'static>;

struct WorkerState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct WorkerShared {
    state: Mutex<WorkerState>,
    cv: Condvar,
    panicked_jobs: AtomicU64,
}

/// A long-lived background worker thread with a FIFO job queue.
///
/// A `Worker` persists across protocol operations, so subsystems can move
/// work *off* the critical path entirely (the offline dealer pre-generates
/// Beaver material here while the online pass runs on the caller's
/// thread). Jobs run strictly in submission order on one
/// thread, so a producer that must consume a deterministic RNG stream in
/// order can rely on FIFO execution.
///
/// Dropping the `Worker` signals shutdown: the job currently running
/// finishes, queued-but-unstarted jobs are discarded, and the thread is
/// joined. Long-running jobs should therefore poll their own cancellation
/// flag if prompt shutdown matters.
///
/// A job that panics does **not** kill the worker: the panic is caught,
/// counted (see [`Worker::panicked_jobs`]), and the loop moves on to the
/// next job. Combined with the poison-recovering locks in
/// [`crate::sync`], a panicking producer degrades service instead of
/// wedging every thread that shares its queue.
pub struct Worker {
    shared: Arc<WorkerShared>,
    handle: Option<crate::sync::thread::JoinHandle>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker").field("pending", &self.pending()).finish_non_exhaustive()
    }
}

impl Worker {
    /// Spawns a named background worker thread with an empty queue.
    #[must_use]
    pub fn spawn(name: &str) -> Worker {
        let shared = Arc::new(WorkerShared {
            state: Mutex::new(WorkerState { jobs: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
            panicked_jobs: AtomicU64::new(0),
        });
        let run = Arc::clone(&shared);
        let handle = crate::sync::thread::spawn_named(name, move || loop {
            let job = {
                let mut st = run.state.lock();
                loop {
                    if let Some(job) = st.jobs.pop_front() {
                        break job;
                    }
                    if st.shutdown {
                        return;
                    }
                    st = run.cv.wait(st);
                }
            };
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                run.panicked_jobs.fetch_add(1, Ordering::Relaxed);
            }
        });
        Worker { shared, handle: Some(handle) }
    }

    /// Enqueues a job; it runs after all previously submitted jobs.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut st = self.shared.state.lock();
        if !st.shutdown {
            st.jobs.push_back(Box::new(job));
        }
        drop(st);
        self.shared.cv.notify_one();
    }

    /// The number of jobs queued but not yet started (the running job, if
    /// any, is not counted).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shared.state.lock().jobs.len()
    }

    /// How many submitted jobs have panicked (and been swallowed) so far.
    /// Submitters that need to distinguish "worker idle" from "worker gave
    /// up" poll this alongside their own progress signals.
    #[must_use]
    pub fn panicked_jobs(&self) -> u64 {
        self.shared.panicked_jobs.load(Ordering::Relaxed)
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            st.jobs.clear();
        }
        self.shared.cv.notify_one();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Blocks until the worker has drained everything submitted so far,
    /// by rendezvousing on a sentinel job.
    fn drain(w: &Worker) {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        w.submit(move || {
            *pair2.0.lock() = true;
            pair2.1.notify_one();
        });
        let mut done = pair.0.lock();
        while !*done {
            done = pair.1.wait(done);
        }
    }

    #[test]
    fn worker_runs_jobs_in_submission_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let w = Worker::spawn("test-worker");
        for i in 0..32u32 {
            let log = Arc::clone(&log);
            w.submit(move || log.lock().push(i));
        }
        drain(&w);
        assert_eq!(*log.lock(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn worker_drop_joins_cleanly() {
        let w = Worker::spawn("drop-worker");
        w.submit(|| {});
        drop(w); // must not hang or panic
    }

    #[test]
    fn worker_survives_panicking_job() {
        let w = Worker::spawn("panic-worker");
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        w.submit(move || l1.lock().push(1));
        w.submit(|| panic!("job blows up"));
        let l2 = Arc::clone(&log);
        w.submit(move || l2.lock().push(2));
        drain(&w);
        assert_eq!(*log.lock(), vec![1, 2], "jobs around the panic must still run");
        assert_eq!(w.panicked_jobs(), 1);
        drop(w); // the thread is still alive to join
    }
}

/// Exhaustive schedule exploration of the worker's submit / FIFO drain /
/// shutdown handshake. Run with `RUSTFLAGS="--cfg loom" cargo test -p
/// aq2pnn-parallel --lib loom_` — the `sync` facade then backs these
/// exact production code paths with the vendored loom model checker.
#[cfg(all(loom, test))]
mod loom_tests {
    use super::sync::{Condvar, Mutex};
    use super::Worker;
    use std::sync::Arc;

    /// Submits racing the worker's pop loop: both jobs must run, in
    /// submission order, and the drain rendezvous must never miss a
    /// wakeup (a lost notify deadlocks the model and fails the test).
    #[test]
    fn loom_worker_fifo_and_drain() {
        loom::model(|| {
            let w = Worker::spawn("w");
            let log = Arc::new(Mutex::new(Vec::new()));
            let l1 = Arc::clone(&log);
            w.submit(move || l1.lock().push(1));
            let l2 = Arc::clone(&log);
            w.submit(move || l2.lock().push(2));
            let done = Arc::new((Mutex::new(false), Condvar::new()));
            let d2 = Arc::clone(&done);
            w.submit(move || {
                *d2.0.lock() = true;
                d2.1.notify_one();
            });
            {
                let mut flag = done.0.lock();
                while !*flag {
                    flag = done.1.wait(flag);
                }
            }
            assert_eq!(*log.lock(), vec![1, 2], "FIFO order violated");
            drop(w);
        });
        assert!(loom::explored() > 1, "model must explore real interleavings");
    }

    /// Shutdown racing submitted work: `drop(w)` may cancel queued jobs,
    /// but whatever ran must be an in-order prefix, and the drop/join
    /// handshake must terminate under every schedule.
    #[test]
    fn loom_worker_shutdown_race() {
        loom::model(|| {
            let w = Worker::spawn("w");
            let log = Arc::new(Mutex::new(Vec::new()));
            let l1 = Arc::clone(&log);
            w.submit(move || l1.lock().push(1));
            let l2 = Arc::clone(&log);
            w.submit(move || l2.lock().push(2));
            drop(w);
            let l = log.lock();
            assert!(
                [&[][..], &[1][..], &[1, 2][..]].contains(&l.as_slice()),
                "executed jobs not an in-order prefix: {l:?}"
            );
        });
    }
}
