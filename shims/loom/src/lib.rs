//! Vendored miniature of the `loom` model checker.
//!
//! This workspace has no registry access, so instead of the real `loom`
//! crate we vendor a small stateless model checker with the same API
//! surface the `aq2pnn` crates need: `loom::model`, `loom::thread`,
//! and `loom::sync::{Arc, Mutex, Condvar, atomic}`.
//!
//! # How it works
//!
//! `model(f)` runs the closure repeatedly, once per distinct thread
//! interleaving. Every execution runs the model's threads as real OS
//! threads under a **token-passing scheduler**: exactly one model
//! thread is runnable at any instant, and every synchronization
//! operation (lock acquire, lock release, condvar wait/notify, atomic
//! access, spawn, join) is a *scheduling point* where the scheduler
//! consults a replayable decision vector to pick the next thread. The
//! decision vector is explored depth-first: after each execution the
//! last decision with untried alternatives is advanced, exactly like
//! CHESS/loom branch backtracking, until the space is exhausted.
//!
//! Fidelity notes (vs. real loom):
//! - Memory is sequentially consistent: all atomic orderings are
//!   treated as `SeqCst`. This finds interleaving bugs (deadlocks,
//!   lost wakeups, ordering violations) but not weak-memory bugs.
//! - Condvars have no spurious wakeups; `notify_one` *is* a branch
//!   point over the waiter set, and a notify with no waiters is lost
//!   (so lost-wakeup bugs are modeled faithfully).
//! - A **preemption bound** (default 2, `LOOM_MAX_PREEMPTIONS`) caps
//!   involuntary context switches per execution, which is what makes
//!   exhaustive exploration tractable; voluntary switches (blocking)
//!   are never bounded. `LOOM_MAX_ITERATIONS` (default 1,000,000)
//!   is a hard cap on explored executions.
//!
//! Failures: a panic in any model thread, or a state where no thread
//! is runnable but some are blocked (deadlock / lost wakeup), aborts
//! the run and panics out of `model()` with the execution count.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock, PoisonError,
};

/// Number of executions explored by the most recent [`model`] call.
pub fn explored() -> u64 {
    last_explored().lock().unwrap_or_else(PoisonError::into_inner).unwrap_or(0)
}

fn last_explored() -> &'static StdMutex<Option<u64>> {
    static CELL: OnceLock<StdMutex<Option<u64>>> = OnceLock::new();
    CELL.get_or_init(|| StdMutex::new(None))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    Runnable,
    BlockedMutex(usize),
    BlockedCond(usize),
    BlockedJoin(usize),
    Finished,
}

#[derive(Clone, Copy, Debug)]
struct Choice {
    chosen: usize,
    alternatives: usize,
}

struct Sched {
    threads: Vec<TState>,
    active: usize,
    live: usize,
    mutexes: Vec<Option<usize>>,
    cond_waiters: Vec<Vec<usize>>,
    path: Vec<Choice>,
    depth: usize,
    preemptions_left: u32,
    abort: bool,
    abort_msg: Option<String>,
    done: bool,
}

struct Shared {
    m: StdMutex<Sched>,
    cv: StdCondvar,
}

type Ctx = (std::sync::Arc<Shared>, usize);

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(sh: std::sync::Arc<Shared>, id: usize) {
    CTX.with(|c| *c.borrow_mut() = Some((sh, id)));
}

fn clear_ctx() {
    CTX.with(|c| *c.borrow_mut() = None);
}

fn lock_sched(sh: &Shared) -> StdMutexGuard<'_, Sched> {
    sh.m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Draw the next decision: `n` alternatives, replaying the recorded
/// path first, then extending it with choice 0.
fn next_choice(g: &mut Sched, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    if g.depth < g.path.len() {
        let c = g.path[g.depth];
        assert!(
            c.alternatives == n,
            "loom: schedule replay diverged ({} alternatives recorded, {n} now) — the model is non-deterministic",
            c.alternatives
        );
        g.depth += 1;
        c.chosen
    } else {
        g.path.push(Choice { chosen: 0, alternatives: n });
        g.depth += 1;
        0
    }
}

/// Pick the next thread to run. `me_runnable` says whether the caller
/// may keep running (a *preemptive* switch point) or is blocking /
/// finishing (a *voluntary* switch, never counted against the bound).
/// Panics on deadlock. Sets `g.active`.
fn pick_next(sh: &Shared, g: &mut Sched, me: usize, me_runnable: bool) {
    let mut opts: Vec<usize> = Vec::new();
    if me_runnable {
        opts.push(me);
    }
    for (i, st) in g.threads.iter().enumerate() {
        if i != me && *st == TState::Runnable {
            opts.push(i);
        }
    }
    if opts.is_empty() {
        if g.live == 0 {
            g.done = true;
            sh.cv.notify_all();
            return;
        }
        let states: Vec<String> =
            g.threads.iter().enumerate().map(|(i, s)| format!("t{i}={s:?}")).collect();
        let msg =
            format!("deadlock: no runnable thread, {} still live [{}]", g.live, states.join(", "));
        g.abort = true;
        g.abort_msg = Some(msg.clone());
        sh.cv.notify_all();
        panic!("loom: {msg}");
    }
    let n = if me_runnable && g.preemptions_left == 0 { 1 } else { opts.len() };
    let idx = next_choice(g, n);
    let chosen = opts[idx];
    if me_runnable && chosen != me {
        g.preemptions_left -= 1;
    }
    g.active = chosen;
}

/// Park until the scheduler hands this thread the token (or the model
/// aborts, in which case unwind).
fn wait_token<'a>(
    sh: &'a Shared,
    mut g: StdMutexGuard<'a, Sched>,
    me: usize,
) -> StdMutexGuard<'a, Sched> {
    while g.active != me {
        if g.abort {
            drop(g);
            panic!("loom: model aborted");
        }
        g = sh.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
    }
    g
}

/// A preemptive scheduling point: the caller stays runnable but other
/// runnable threads may be scheduled instead (bounded by the
/// preemption budget).
fn switch(sh: &Shared, me: usize) {
    let mut g = lock_sched(sh);
    if g.abort {
        drop(g);
        panic!("loom: model aborted");
    }
    pick_next(sh, &mut g, me, true);
    if g.active != me {
        sh.cv.notify_all();
        let _g = wait_token(sh, g, me);
    }
}

fn maybe_switch() {
    if let Some((sh, me)) = ctx() {
        switch(&sh, me);
    }
}

fn finish_thread(sh: &Shared, me: usize, panicked: bool) {
    let mut g = lock_sched(sh);
    g.threads[me] = TState::Finished;
    g.live -= 1;
    for st in &mut g.threads {
        if *st == TState::BlockedJoin(me) {
            *st = TState::Runnable;
        }
    }
    if panicked && !g.abort {
        g.abort = true;
        sh.cv.notify_all();
        return;
    }
    if g.abort {
        sh.cv.notify_all();
        return;
    }
    if g.live == 0 {
        g.done = true;
        sh.cv.notify_all();
        return;
    }
    pick_next(sh, &mut g, me, false);
    sh.cv.notify_all();
}

/// Run `f` under every explored thread interleaving.
///
/// Panics (after printing the execution count) if any execution
/// panics or deadlocks. On success prints the number of distinct
/// executions explored, also available via [`explored`].
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    // Serialize concurrent `model` calls from the test harness.
    static MODEL_LOCK: StdMutex<()> = StdMutex::new(());
    let _serial = MODEL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);

    let max_preempt: u32 =
        std::env::var("LOOM_MAX_PREEMPTIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(2);
    let max_iters: u64 =
        std::env::var("LOOM_MAX_ITERATIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(1_000_000);

    let f = std::sync::Arc::new(f);
    let mut path: Vec<Choice> = Vec::new();
    let mut execs: u64 = 0;
    loop {
        execs += 1;
        assert!(
            execs <= max_iters,
            "loom: exceeded LOOM_MAX_ITERATIONS={max_iters} without exhausting the schedule space"
        );
        let sh = std::sync::Arc::new(Shared {
            m: StdMutex::new(Sched {
                threads: vec![TState::Runnable],
                active: 0,
                live: 1,
                mutexes: Vec::new(),
                cond_waiters: Vec::new(),
                path: std::mem::take(&mut path),
                depth: 0,
                preemptions_left: max_preempt,
                abort: false,
                abort_msg: None,
                done: false,
            }),
            cv: StdCondvar::new(),
        });
        let sh_root = sh.clone();
        let fr = f.clone();
        let root = std::thread::Builder::new()
            .name("loom-0".into())
            .spawn(move || {
                set_ctx(sh_root.clone(), 0);
                let r = catch_unwind(AssertUnwindSafe(|| fr()));
                finish_thread(&sh_root, 0, r.is_err());
                clear_ctx();
                if let Err(p) = r {
                    resume_unwind(p);
                }
            })
            .expect("spawn loom root thread");
        {
            let mut g = lock_sched(&sh);
            while !g.done && !g.abort {
                g = sh.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        }
        let root_result = root.join();

        let (aborted, abort_msg, final_path) = {
            let mut g = lock_sched(&sh);
            (g.abort, g.abort_msg.take(), std::mem::take(&mut g.path))
        };
        if aborted || root_result.is_err() {
            eprintln!("loom: failing schedule found after {execs} executions");
            if let Some(msg) = abort_msg {
                panic!("loom: {msg} (execution {execs})");
            }
            match root_result {
                Err(p) => resume_unwind(p),
                Ok(()) => panic!("loom: a model thread panicked (execution {execs}; see stderr)"),
            }
        }

        // Depth-first backtrack: advance the deepest decision that
        // still has untried alternatives.
        let mut p = final_path;
        let more = loop {
            match p.pop() {
                None => break false,
                Some(mut c) => {
                    if c.chosen + 1 < c.alternatives {
                        c.chosen += 1;
                        p.push(c);
                        break true;
                    }
                }
            }
        };
        if !more {
            break;
        }
        path = p;
    }
    *last_explored().lock().unwrap_or_else(PoisonError::into_inner) = Some(execs);
    eprintln!("loom: explored {execs} executions");
}

pub mod thread {
    //! Model-aware replacement for `std::thread`.

    use super::{
        ctx, finish_thread, lock_sched, pick_next, set_ctx, switch, wait_token, Shared, TState,
    };
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// Model-aware join handle; outside a model it degrades to a plain
    /// `std::thread::JoinHandle`.
    pub struct JoinHandle<T> {
        inner: Option<std::thread::JoinHandle<T>>,
        model: Option<(std::sync::Arc<Shared>, usize)>,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish (a scheduling point inside a
        /// model) and return its result.
        pub fn join(mut self) -> std::thread::Result<T> {
            if let Some((sh, target)) = self.model.take() {
                if let Some((_, me)) = ctx() {
                    let mut g = lock_sched(&sh);
                    loop {
                        if g.abort || g.threads[target] == TState::Finished {
                            break;
                        }
                        g.threads[me] = TState::BlockedJoin(target);
                        pick_next(&sh, &mut g, me, false);
                        sh.cv.notify_all();
                        g = wait_token(&sh, g, me);
                    }
                }
            }
            self.inner.take().expect("join handle consumed").join()
        }
    }

    /// Spawn a model thread (a scheduling point: the child may be
    /// scheduled before the parent continues).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match ctx() {
            Some((sh, me)) => {
                let id = {
                    let mut g = lock_sched(&sh);
                    g.threads.push(TState::Runnable);
                    g.live += 1;
                    g.threads.len() - 1
                };
                let sh_child = sh.clone();
                let h = std::thread::Builder::new()
                    .name(format!("loom-{id}"))
                    .spawn(move || {
                        set_ctx(sh_child.clone(), id);
                        {
                            let g = lock_sched(&sh_child);
                            let _g = wait_token(&sh_child, g, id);
                        }
                        let r = catch_unwind(AssertUnwindSafe(f));
                        finish_thread(&sh_child, id, r.is_err());
                        super::clear_ctx();
                        match r {
                            Ok(t) => t,
                            Err(p) => resume_unwind(p),
                        }
                    })
                    .expect("spawn loom thread");
                switch(&sh, me);
                JoinHandle { inner: Some(h), model: Some((sh, id)) }
            }
            None => JoinHandle { inner: Some(std::thread::spawn(f)), model: None },
        }
    }

    /// Voluntary scheduling point.
    pub fn yield_now() {
        super::maybe_switch();
    }
}

pub mod sync {
    //! Model-aware replacements for `std::sync` primitives, API-compatible
    //! with their `std` counterparts so callers can swap them by `use`.

    pub use std::sync::Arc;
    use std::sync::{LockResult, PoisonError};

    use super::{ctx, lock_sched, next_choice, pick_next, switch, wait_token, Shared, TState};

    /// Model-aware mutex. Data lives in an inner `std` mutex (which the
    /// scheduler keeps uncontended); blocking and wakeups are virtual.
    pub struct Mutex<T> {
        id: std::sync::OnceLock<usize>,
        data: std::sync::Mutex<T>,
    }

    /// Guard for [`Mutex`]; releasing it is a scheduling point.
    pub struct MutexGuard<'a, T> {
        inner: Option<std::sync::MutexGuard<'a, T>>,
        lock: &'a Mutex<T>,
        model: Option<(Arc<Shared>, usize)>,
    }

    impl<T> Mutex<T> {
        /// Create a new mutex holding `t`.
        pub fn new(t: T) -> Self {
            Self { id: std::sync::OnceLock::new(), data: std::sync::Mutex::new(t) }
        }

        fn mid(&self, sh: &Shared) -> usize {
            *self.id.get_or_init(|| {
                let mut g = lock_sched(sh);
                g.mutexes.push(None);
                g.mutexes.len() - 1
            })
        }

        /// Acquire the mutex (a scheduling point before the acquire).
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            match ctx() {
                Some((sh, me)) => {
                    let m = self.mid(&sh);
                    switch(&sh, me);
                    let mut g = lock_sched(&sh);
                    loop {
                        if g.abort {
                            drop(g);
                            panic!("loom: model aborted");
                        }
                        if g.mutexes[m].is_none() {
                            g.mutexes[m] = Some(me);
                            break;
                        }
                        g.threads[me] = TState::BlockedMutex(m);
                        pick_next(&sh, &mut g, me, false);
                        sh.cv.notify_all();
                        g = wait_token(&sh, g, me);
                    }
                    drop(g);
                    let inner = self.data.lock().unwrap_or_else(PoisonError::into_inner);
                    Ok(MutexGuard { inner: Some(inner), lock: self, model: Some((sh, me)) })
                }
                None => {
                    let inner = self.data.lock().unwrap_or_else(PoisonError::into_inner);
                    Ok(MutexGuard { inner: Some(inner), lock: self, model: None })
                }
            }
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard live")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard live")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Release the real lock first, then the virtual one.
            self.inner.take();
            if let Some((sh, me)) = self.model.take() {
                let m = *self.lock.id.get().expect("registered mutex");
                {
                    let mut g = lock_sched(&sh);
                    if g.abort {
                        return;
                    }
                    g.mutexes[m] = None;
                    for st in &mut g.threads {
                        if *st == TState::BlockedMutex(m) {
                            *st = TState::Runnable;
                        }
                    }
                }
                // A release is a scheduling point — unless we are
                // already unwinding, in which case scheduling from a
                // destructor could double-panic.
                if !std::thread::panicking() {
                    switch(&sh, me);
                }
            }
        }
    }

    /// Model-aware condvar: waiter lists are virtual, `notify_one` is
    /// a branch point over the waiters, and un-witnessed notifies are
    /// lost (modeling lost wakeups).
    pub struct Condvar {
        id: std::sync::OnceLock<usize>,
        real: std::sync::Condvar,
    }

    impl Default for Condvar {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Condvar {
        /// Create a new condvar.
        pub fn new() -> Self {
            Self { id: std::sync::OnceLock::new(), real: std::sync::Condvar::new() }
        }

        fn cid(&self, sh: &Shared) -> usize {
            *self.id.get_or_init(|| {
                let mut g = lock_sched(sh);
                g.cond_waiters.push(Vec::new());
                g.cond_waiters.len() - 1
            })
        }

        /// Atomically release the guard and wait for a notification,
        /// then re-acquire.
        pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            match guard.model.clone() {
                Some((sh, me)) => {
                    let cv = self.cid(&sh);
                    let m = *guard.lock.id.get().expect("guard from model mutex");
                    guard.inner.take();
                    let mut g = lock_sched(&sh);
                    if g.abort {
                        drop(g);
                        panic!("loom: model aborted");
                    }
                    g.cond_waiters[cv].push(me);
                    g.mutexes[m] = None;
                    for st in &mut g.threads {
                        if *st == TState::BlockedMutex(m) {
                            *st = TState::Runnable;
                        }
                    }
                    g.threads[me] = TState::BlockedCond(cv);
                    pick_next(&sh, &mut g, me, false);
                    sh.cv.notify_all();
                    g = wait_token(&sh, g, me);
                    // Notified: re-acquire the mutex.
                    loop {
                        if g.abort {
                            drop(g);
                            panic!("loom: model aborted");
                        }
                        if g.mutexes[m].is_none() {
                            g.mutexes[m] = Some(me);
                            break;
                        }
                        g.threads[me] = TState::BlockedMutex(m);
                        pick_next(&sh, &mut g, me, false);
                        sh.cv.notify_all();
                        g = wait_token(&sh, g, me);
                    }
                    drop(g);
                    guard.inner =
                        Some(guard.lock.data.lock().unwrap_or_else(PoisonError::into_inner));
                    Ok(guard)
                }
                None => {
                    let std_guard = guard.inner.take().expect("guard live");
                    let back = self.real.wait(std_guard).unwrap_or_else(PoisonError::into_inner);
                    guard.inner = Some(back);
                    Ok(guard)
                }
            }
        }

        /// Wake one waiter; *which* one is a model branch point. With
        /// no waiters the notification is lost.
        pub fn notify_one(&self) {
            match ctx() {
                Some((sh, me)) => {
                    switch(&sh, me);
                    let cv = self.cid(&sh);
                    let mut g = lock_sched(&sh);
                    if g.abort {
                        drop(g);
                        panic!("loom: model aborted");
                    }
                    if !g.cond_waiters[cv].is_empty() {
                        let n = g.cond_waiters[cv].len();
                        let idx = next_choice(&mut g, n);
                        let t = g.cond_waiters[cv].remove(idx);
                        g.threads[t] = TState::Runnable;
                    }
                }
                None => self.real.notify_one(),
            }
        }

        /// Wake all waiters.
        pub fn notify_all(&self) {
            match ctx() {
                Some((sh, me)) => {
                    switch(&sh, me);
                    let cv = self.cid(&sh);
                    let mut g = lock_sched(&sh);
                    if g.abort {
                        drop(g);
                        panic!("loom: model aborted");
                    }
                    let waiters = std::mem::take(&mut g.cond_waiters[cv]);
                    for t in waiters {
                        g.threads[t] = TState::Runnable;
                    }
                }
                None => self.real.notify_all(),
            }
        }
    }

    pub mod atomic {
        //! Model-aware atomics: every access is a scheduling point;
        //! all orderings are modeled as `SeqCst`.

        pub use std::sync::atomic::Ordering;

        use super::super::maybe_switch;

        macro_rules! model_atomic {
            ($name:ident, $std:ty, $prim:ty) => {
                /// Model-aware atomic; every access is a scheduling point.
                #[derive(Debug, Default)]
                pub struct $name {
                    v: $std,
                }

                impl $name {
                    /// Create a new atomic holding `v`.
                    pub fn new(v: $prim) -> Self {
                        Self { v: <$std>::new(v) }
                    }

                    /// Atomic load (scheduling point).
                    pub fn load(&self, o: Ordering) -> $prim {
                        maybe_switch();
                        self.v.load(o)
                    }

                    /// Atomic store (scheduling point).
                    pub fn store(&self, val: $prim, o: Ordering) {
                        maybe_switch();
                        self.v.store(val, o);
                    }

                    /// Atomic swap (scheduling point).
                    pub fn swap(&self, val: $prim, o: Ordering) -> $prim {
                        maybe_switch();
                        self.v.swap(val, o)
                    }
                }
            };
        }

        model_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
        model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
        model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);

        impl AtomicUsize {
            /// Atomic add (scheduling point), returning the prior value.
            pub fn fetch_add(&self, val: usize, o: Ordering) -> usize {
                maybe_switch();
                self.v.fetch_add(val, o)
            }

            /// Atomic compare-and-exchange (scheduling point).
            ///
            /// # Errors
            ///
            /// Returns the current value when it is not `current`.
            pub fn compare_exchange(
                &self,
                current: usize,
                new: usize,
                success: Ordering,
                failure: Ordering,
            ) -> Result<usize, usize> {
                maybe_switch();
                self.v.compare_exchange(current, new, success, failure)
            }
        }

        impl AtomicU64 {
            /// Atomic add (scheduling point), returning the prior value.
            pub fn fetch_add(&self, val: u64, o: Ordering) -> u64 {
                maybe_switch();
                self.v.fetch_add(val, o)
            }

            /// Atomic subtract (scheduling point), returning the prior value.
            pub fn fetch_sub(&self, val: u64, o: Ordering) -> u64 {
                maybe_switch();
                self.v.fetch_sub(val, o)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::{Arc, Condvar, Mutex};

    #[test]
    fn model_explores_multiple_schedules() {
        super::model(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let a2 = a.clone();
            let h = super::thread::spawn(move || {
                a2.fetch_add(1, Ordering::SeqCst);
            });
            a.fetch_add(1, Ordering::SeqCst);
            h.join().expect("child join");
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
        assert!(super::explored() > 1, "two racing increments must yield several schedules");
    }

    #[test]
    fn model_mutex_excludes() {
        super::model(|| {
            let m = Arc::new(Mutex::new(0u32));
            let m2 = m.clone();
            let h = super::thread::spawn(move || {
                let mut g = m2.lock().expect("lock");
                let v = *g;
                *g = v + 1;
            });
            {
                let mut g = m.lock().expect("lock");
                let v = *g;
                *g = v + 1;
            }
            h.join().expect("join");
            assert_eq!(*m.lock().expect("lock"), 2);
        });
    }

    #[test]
    fn model_condvar_handshake() {
        super::model(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let pair2 = pair.clone();
            let h = super::thread::spawn(move || {
                let mut flag = pair2.0.lock().expect("lock");
                *flag = true;
                pair2.1.notify_one();
            });
            {
                let mut flag = pair.0.lock().expect("lock");
                while !*flag {
                    flag = pair.1.wait(flag).expect("wait");
                }
            }
            h.join().expect("join");
        });
    }

    #[test]
    fn model_detects_deadlock() {
        let r = std::panic::catch_unwind(|| {
            super::model(|| {
                let pair = Arc::new((Mutex::new(()), Condvar::new()));
                // Wait with no notifier in sight: must be reported as
                // a deadlock, not hang.
                let g = pair.0.lock().expect("lock");
                let _g = pair.1.wait(g).expect("wait");
            });
        });
        let err = r.expect_err("un-notified wait must fail the model");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(msg.contains("deadlock"), "expected deadlock diagnostic, got: {msg}");
    }
}
