//! # cosmo-exec
//!
//! A std-only persistent worker pool shared by the serving hot path
//! (Figure 5 batch cycles) and the offline generation pipeline (Figure 2).
//!
//! Design goals, in order:
//!
//! * **Determinism** — the chunked map combinators assign every item a
//!   stable index and merge results in index order, so the output is
//!   byte-identical to a sequential run regardless of worker count or
//!   scheduling.
//! * **Panic isolation** — a panicking chunk never kills the caller or a
//!   worker thread. [`WorkerPool::map`] re-raises the first panic *after*
//!   every chunk has settled; [`WorkerPool::try_map_slices`] converts
//!   panicked chunks into data ([`ChunkResult::Panicked`]) so callers can
//!   re-queue the affected items (the serving batch cycle does exactly
//!   that).
//! * **No per-call thread spawning** — workers are spawned once and fed
//!   over a bounded channel; scopes borrow the pool.
//!
//! A pool built with `threads <= 1` spawns no threads at all: jobs run
//! inline on the calling thread, which makes `threads = 1` reproduce the
//! sequential code path exactly (and cheaply).

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A unit of work fed to the workers.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Per-chunk landing slot for [`WorkerPool::map`].
type MapSlot<R> = Option<std::thread::Result<Vec<R>>>;

/// Per-worker queue slack: the injection channel holds up to
/// `threads * QUEUE_SLACK` jobs before submitters block (backpressure
/// instead of unbounded buffering).
const QUEUE_SLACK: usize = 8;

/// Fixed-size persistent worker pool over a bounded channel.
///
/// Dropping the pool closes the channel; workers drain outstanding jobs
/// and exit, and the drop joins them.
pub struct WorkerPool {
    tx: Option<SyncSender<Job>>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Spawn a pool with `threads` workers. `threads <= 1` creates an
    /// inline pool: no threads are spawned and every job runs on the
    /// submitting thread, exactly reproducing sequential execution.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        if threads == 1 {
            return WorkerPool {
                tx: None,
                handles: Vec::new(),
                threads: 1,
            };
        }
        let (tx, rx) = sync_channel::<Job>(threads * QUEUE_SLACK);
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("cosmo-exec-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn cosmo-exec worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            handles,
            threads,
        }
    }

    /// Number of available CPU cores (1 when undetectable).
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Worker count this pool was built with (1 for the inline pool).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submit a raw job. On an inline pool the job runs immediately on the
    /// calling thread.
    fn submit(&self, job: Job) {
        match &self.tx {
            Some(tx) => {
                let _ = tx.send(job);
            }
            None => job(),
        }
    }

    /// Run `f` with a [`Scope`] that can spawn borrowing jobs onto the
    /// pool. The call returns only after every spawned job has finished
    /// (also on unwind), which is what makes the borrows sound.
    ///
    /// Panics *inside spawned jobs* are contained and silently dropped at
    /// this level — use [`WorkerPool::map`] (re-raises) or
    /// [`WorkerPool::try_map_slices`] (reports) when you care. Do not call
    /// `scope` from inside a job running on the same pool: the outer scope
    /// could deadlock waiting for queue slots its own jobs occupy.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState::default()),
            env: PhantomData,
        };
        // The guard waits for `pending == 0` on drop, so even if `f`
        // panics after spawning, no job outlives the borrowed environment.
        let _guard = WaitGuard {
            state: &scope.state,
        };
        f(&scope)
    }

    /// Parallel indexed map with deterministic, index-ordered merge.
    ///
    /// `items` is split into chunks of `chunk_size`; each chunk is mapped
    /// on a worker and the per-chunk results are concatenated in chunk
    /// order, so the output equals `items.iter().enumerate().map(f)`
    /// exactly, independent of thread count. `f` receives each item's
    /// index in `items` (stable seeds derive from it).
    ///
    /// If any chunk panics, the first panic (in chunk order) is re-raised
    /// after all chunks have settled.
    pub fn map<T, R, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let chunk_size = chunk_size.max(1);
        if self.threads == 1 || items.len() <= chunk_size {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let mut slots: Vec<MapSlot<R>> = Vec::new();
        slots.resize_with(items.len().div_ceil(chunk_size), || None);
        self.scope(|s| {
            for (ci, (chunk, slot)) in items.chunks(chunk_size).zip(slots.iter_mut()).enumerate() {
                let f = &f;
                s.spawn(move || {
                    let start = ci * chunk_size;
                    *slot = Some(catch_unwind(AssertUnwindSafe(|| {
                        chunk
                            .iter()
                            .enumerate()
                            .map(|(j, t)| f(start + j, t))
                            .collect()
                    })));
                });
            }
        });
        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            match slot.expect("scope waits for every chunk") {
                Ok(rs) => out.extend(rs),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    }

    /// Panic-*isolating* chunked map: the closure receives each whole
    /// chunk (`(start, &items[start..])`) and returns its per-item
    /// results, letting callers run one *batched* computation per chunk
    /// instead of an independent call per item. The returned `Vec` must
    /// have one entry per chunk item (checked). Each chunk yields either
    /// its results or a [`ChunkResult::Panicked`] marker carrying the item
    /// range, letting the caller recover (e.g. re-queue) the affected
    /// inputs. Chunks are returned in index order.
    pub fn try_map_slices<T, R, F>(
        &self,
        items: &[T],
        chunk_size: usize,
        f: F,
    ) -> Vec<ChunkResult<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> Vec<R> + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let n_chunks = items.len().div_ceil(chunk_size);
        let mut slots: Vec<Option<ChunkResult<R>>> = Vec::new();
        slots.resize_with(n_chunks, || None);
        let run_chunk = |ci: usize, chunk: &[T]| -> ChunkResult<R> {
            let start = ci * chunk_size;
            match catch_unwind(AssertUnwindSafe(|| {
                let results = f(start, chunk);
                assert_eq!(
                    results.len(),
                    chunk.len(),
                    "slice closure must return one result per item"
                );
                results
            })) {
                Ok(results) => ChunkResult::Computed { start, results },
                Err(_) => ChunkResult::Panicked {
                    start,
                    len: chunk.len(),
                },
            }
        };
        if self.threads == 1 || n_chunks <= 1 {
            return items
                .chunks(chunk_size)
                .enumerate()
                .map(|(ci, chunk)| run_chunk(ci, chunk))
                .collect();
        }
        self.scope(|s| {
            for (ci, (chunk, slot)) in items.chunks(chunk_size).zip(slots.iter_mut()).enumerate() {
                let run_chunk = &run_chunk;
                s.spawn(move || *slot = Some(run_chunk(ci, chunk)));
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("scope waits for every chunk"))
            .collect()
    }

    /// A chunk size that yields a few chunks per worker (load balancing
    /// without drowning the queue), never zero.
    pub fn chunk_for(&self, len: usize) -> usize {
        len.div_ceil(self.threads * 4).max(1)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx.take(); // closes the channel; workers drain and exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        match job {
            Ok(job) => job(), // jobs contain their own catch_unwind
            Err(_) => break,  // channel closed: pool is shutting down
        }
    }
}

/// Outcome of one chunk under [`WorkerPool::try_map_slices`].
#[derive(Debug)]
pub enum ChunkResult<R> {
    /// The chunk completed; `results[j]` corresponds to `items[start + j]`.
    Computed {
        /// Index of the chunk's first item.
        start: usize,
        /// Per-item results, in item order.
        results: Vec<R>,
    },
    /// The chunk panicked; `items[start..start + len]` were lost.
    Panicked {
        /// Index of the chunk's first item.
        start: usize,
        /// Number of items in the chunk.
        len: usize,
    },
}

#[derive(Default)]
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
}

impl ScopeState {
    fn finish_one(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(
            *pending > 0,
            "finish_one without a matching spawn — the WaitGuard soundness \
             argument assumes pending counts every outstanding job exactly once"
        );
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn wait_all(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        while *pending > 0 {
            pending = self
                .done
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Spawns jobs that may borrow the environment (`'env`), created by
/// [`WorkerPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::scope`.
    env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawn a job onto the pool. The job may borrow from `'env`; the
    /// owning [`WorkerPool::scope`] call waits for it before returning.
    /// A panic inside the job is caught and dropped (the scope still
    /// completes) — wrap the body yourself if you need the payload.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        *self
            .state
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner) += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            // The catch keeps the worker thread (and the pending count)
            // alive through user panics.
            let _ = catch_unwind(AssertUnwindSafe(f));
            state.finish_one();
        });
        // SAFETY: the scope guard blocks until `pending == 0` before the
        // `'env` borrows can expire (including on unwind), so erasing the
        // lifetime cannot let a job observe a dead borrow. The pool
        // outlives the scope by the `'pool` borrow.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.submit(job);
    }
}

/// Waits for all scope jobs on drop — the soundness anchor of `scope`.
struct WaitGuard<'a> {
    state: &'a ScopeState,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.state.wait_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // Miri interprets every instruction, so the stress shapes that take
    // milliseconds natively take minutes. Under Miri we shrink item counts
    // and thread/chunk grids; the interleavings exercised are the same.
    const N_ITEMS: u64 = if cfg!(miri) { 64 } else { 1000 };

    #[test]
    fn map_matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..N_ITEMS).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        let thread_grid: &[usize] = if cfg!(miri) { &[1, 4] } else { &[1, 2, 4, 8] };
        let chunk_grid: &[usize] = if cfg!(miri) {
            &[1, 7, 5000]
        } else {
            &[1, 7, 64, 5000]
        };
        for &threads in thread_grid {
            let pool = WorkerPool::new(threads);
            for &chunk in chunk_grid {
                let got = pool.map(&items, chunk, |i, x| x * 3 + i as u64);
                assert_eq!(got, expect, "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "relies on wall-clock sleep to spread work")]
    fn map_runs_on_many_threads() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let names: Vec<String> = pool.map(&items, 1, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().name().unwrap_or("main").to_string()
        });
        let distinct: std::collections::HashSet<&String> = names.iter().collect();
        assert!(distinct.len() > 1, "work should spread across workers");
    }

    #[test]
    fn inline_pool_spawns_no_threads() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let here = std::thread::current().id();
        pool.scope(|s| {
            s.spawn(move || assert_eq!(std::thread::current().id(), here));
        });
    }

    #[test]
    fn map_propagates_first_panic_in_chunk_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, 10, |i, _| {
                if i >= 30 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        let payload = caught.expect_err("must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "boom at 30", "first panicking chunk wins");
        // pool must stay usable afterwards
        assert_eq!(pool.map(&items, 10, |_, &x| x), items);
    }

    /// `try_map_slices` must deliver whole chunks with correct starts,
    /// isolate panicking chunks, and agree with the per-item formulation.
    #[test]
    fn try_map_slices_delivers_chunks_and_isolates_panics() {
        let items: Vec<usize> = (0..23).collect();
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let out = pool.try_map_slices(&items, 5, |start, chunk| {
                assert_eq!(chunk[0], start, "chunk must begin at start");
                if start == 10 {
                    panic!("boom");
                }
                chunk.iter().map(|&x| x * 2).collect()
            });
            let mut recovered = Vec::new();
            let mut panicked = Vec::new();
            for r in &out {
                match r {
                    ChunkResult::Computed { start, results } => {
                        for (j, &v) in results.iter().enumerate() {
                            assert_eq!(v, (start + j) * 2);
                            recovered.push(start + j);
                        }
                    }
                    ChunkResult::Panicked { start, len } => panicked.push((*start, *len)),
                }
            }
            assert_eq!(panicked, vec![(10, 5)], "threads={threads}");
            assert_eq!(recovered.len(), 18, "threads={threads}");
        }
    }

    /// A slice closure returning the wrong number of results is a bug in
    /// the caller; the length check converts it into a Panicked chunk
    /// rather than silently misaligning item indices.
    #[test]
    fn try_map_slices_flags_length_mismatch_as_panicked() {
        let pool = WorkerPool::new(1);
        let items = [1, 2, 3, 4];
        let out = pool.try_map_slices(
            &items,
            2,
            |start, chunk| {
                if start == 0 {
                    vec![0]
                } else {
                    chunk.to_vec()
                }
            },
        );
        assert!(matches!(out[0], ChunkResult::Panicked { start: 0, len: 2 }));
        assert!(matches!(out[1], ChunkResult::Computed { .. }));
    }

    #[test]
    fn scope_borrows_local_state() {
        let pool = WorkerPool::new(3);
        let data: Vec<usize> = (0..256).collect();
        let sum = AtomicUsize::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(16) {
                let sum = &sum;
                s.spawn(move || {
                    sum.fetch_add(chunk.iter().sum::<usize>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), data.iter().sum::<usize>());
    }

    #[test]
    fn concurrent_scopes_share_one_pool() {
        let per_scope: u64 = if cfg!(miri) { 40 } else { 200 };
        let pool = Arc::new(WorkerPool::new(4));
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                let items: Vec<u64> = (0..per_scope).map(|i| i + t * 1000).collect();
                pool.map(&items, 13, |_, &x| x + 1)
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            let got = j.join().unwrap();
            let expect: Vec<u64> = (0..per_scope).map(|i| i + t as u64 * 1000 + 1).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn chunk_for_balances_without_zero() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.chunk_for(0), 1);
        assert_eq!(pool.chunk_for(3), 1);
        assert_eq!(pool.chunk_for(1600), 100);
    }
}
