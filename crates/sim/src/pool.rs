//! Ordered fork-join stages: the one executor behind the engine, the
//! city and the sweeps.
//!
//! Every parallel step in this crate is an ordered map. Within a slot,
//! each node's Fig. 8 work (synthesis, superposition, §7 decode)
//! depends on no other node's; within a sweep, each repetition derives
//! its own seed from the base seed and its index (§11.4: 40
//! repetitions of 1000 packets). So one primitive serves all of them:
//! [`Pool::stage`] takes a list of jobs and returns their results **in
//! index order**, whatever order they finish in.
//!
//! [`with_pool`] opens a pool for the length of a run (or a sweep):
//! with one worker there are no threads and every stage runs its jobs
//! inline, in order, on the calling thread. With `n` workers it opens
//! a [`std::thread::scope`] and spawns `n - 1` threads that park on a
//! condition variable between stages. A stage queues its jobs, wakes
//! the workers, and takes jobs itself until none is left to start; it
//! then waits only for jobs a worker has already started, never for a
//! worker that has not woken yet. Jobs may borrow anything that
//! outlives the pool, and own what changes between stages.
//!
//! A panicking job does not take the caller down: the pool catches its
//! unwind, finishes the other jobs, and the stage returns
//! [`StageFailed`] naming the stage and the job.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A job of a stage panicked. The pool caught the unwind and finished
/// the stage's other jobs; their results are discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageFailed {
    /// The stage's name, as its caller gave it.
    pub stage: &'static str,
    /// The lowest index among the jobs that panicked.
    pub index: usize,
}

impl std::fmt::Display for StageFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stage {} failed: job {} panicked",
            self.stage, self.index
        )
    }
}

impl std::error::Error for StageFailed {}

/// A caught job panic: the job's index and its payload.
struct Panicked {
    index: usize,
    payload: Box<dyn Any + Send>,
}

/// Resolves a worker-count knob: `0` means one worker per available
/// core.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
}

/// Locks `m`. No job runs under any of the pool's locks, so a poisoned
/// lock still holds consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// The jobs of the running stage, which the workers park on.
struct Queue<'env> {
    state: Mutex<(VecDeque<Job<'env>>, bool)>,
    ready: Condvar,
}

impl<'env> Queue<'env> {
    fn pop(&self) -> Option<Job<'env>> {
        lock(&self.state).0.pop_front()
    }

    /// A worker's loop: run jobs as they come, park while there are
    /// none, return once the pool closes.
    fn serve(&self) {
        let mut state = lock(&self.state);
        loop {
            if let Some(job) = state.0.pop_front() {
                drop(state);
                job();
                state = lock(&self.state);
            } else if state.1 {
                return;
            } else {
                state = self
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// A pool of workers for a run's stages (see [`with_pool`]). Jobs
/// borrow for `'env`: anything that outlives the pool.
pub struct Pool<'q, 'env> {
    /// `None` for a one-worker pool: stages run inline.
    queue: Option<&'q Queue<'env>>,
}

impl Drop for Pool<'_, '_> {
    /// Closes the queue when the pool's body returns or unwinds, so
    /// the workers leave their loop and the scope can join them.
    fn drop(&mut self) {
        if let Some(queue) = self.queue {
            lock(&queue.state).1 = true;
            queue.ready.notify_all();
        }
    }
}

/// Runs `body` with a pool of `workers` threads, the caller's
/// included (`0` and `1` both mean no extra thread), and joins the
/// workers when `body` returns.
pub fn with_pool<'env, R>(workers: usize, body: impl FnOnce(&Pool<'_, 'env>) -> R) -> R {
    if workers <= 1 {
        return body(&Pool { queue: None });
    }
    let queue = Queue {
        state: Mutex::new((VecDeque::new(), false)),
        ready: Condvar::new(),
    };
    std::thread::scope(|scope| {
        let pool = Pool {
            queue: Some(&queue),
        };
        let workers: Vec<_> = (1..workers)
            .map(|_| scope.spawn(|| queue.serve()))
            .collect();
        let out = body(&pool);
        drop(pool);
        // Join each worker in full before returning: the scope alone
        // returns once the closures finish, before a thread hands its
        // allocator arena back, so the next run's workers would open
        // fresh arenas and resident memory would grow run by run. A
        // worker cannot panic: every job runs under `catch_unwind`.
        for worker in workers {
            let _ = worker.join();
        }
        out
    })
}

impl<'env> Pool<'_, 'env> {
    /// Runs one stage: `f` over `items`, results in item order. A
    /// panicking job becomes [`StageFailed`] carrying `name`.
    pub fn stage<T, R, F>(
        &self,
        name: &'static str,
        items: Vec<T>,
        f: F,
    ) -> Result<Vec<R>, StageFailed>
    where
        T: Send + 'env,
        R: Send + 'env,
        F: Fn(T) -> R + Send + Sync + 'env,
    {
        self.map(items, f).map_err(|p| StageFailed {
            stage: name,
            index: p.index,
        })
    }

    fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, Panicked>
    where
        T: Send + 'env,
        R: Send + 'env,
        F: Fn(T) -> R + Send + Sync + 'env,
    {
        let n = items.len();
        let queue = match self.queue {
            Some(queue) if n > 1 => queue,
            _ => {
                return items
                    .into_iter()
                    .enumerate()
                    .map(|(index, item)| {
                        catch_unwind(AssertUnwindSafe(|| f(item)))
                            .map_err(|payload| Panicked { index, payload })
                    })
                    .collect()
            }
        };
        let f = Arc::new(f);
        let (done, finished) = mpsc::channel();
        {
            let mut state = lock(&queue.state);
            for (index, item) in items.into_iter().enumerate() {
                let (f, done) = (Arc::clone(&f), done.clone());
                state.0.push_back(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| f(item)));
                    // Release the job's captures before the caller can
                    // see it finished.
                    drop(f);
                    // `finished` lives until all n results arrive, so
                    // the send cannot fail.
                    let _ = done.send((index, result));
                }));
            }
        }
        queue.ready.notify_all();
        while let Some(job) = queue.pop() {
            job();
        }
        let mut results = Vec::with_capacity(n);
        let mut failed: Option<Panicked> = None;
        for (index, result) in finished.iter().take(n) {
            match result {
                Ok(r) => results.push((index, r)),
                Err(payload) if failed.as_ref().map_or(true, |p| index < p.index) => {
                    failed = Some(Panicked { index, payload });
                }
                Err(_) => {}
            }
        }
        if let Some(p) = failed {
            return Err(p);
        }
        results.sort_unstable_by_key(|(index, _)| *index);
        Ok(results.into_iter().map(|(_, r)| r).collect())
    }
}

/// Evaluates `f(0)`, `f(1)`, …, `f(n - 1)` across at most `threads`
/// workers (`0` = all cores) and returns the results in index order.
/// With `threads <= 1` (or `n <= 1`) the closure runs inline on the
/// calling thread — the serial baseline the parallel path is compared
/// against. A panic in `f` is re-raised on the calling thread, with
/// no worker left running.
pub fn parallel_map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parallel_map_indexed_with(n, threads, || (), |_, i| f(i))
}

/// [`parallel_map_indexed`] with **reused state**: `init` builds an
/// `S` whenever a job finds none idle (at most one per worker), and
/// `f` receives one mutably alongside each index; a finished job hands
/// its state to the next.
///
/// This is how the Monte Carlo sweep shares warmed decode pipelines
/// instead of regrowing scratch buffers in every trial. Results remain
/// bit-identical to the serial path *provided* `f`'s output does not
/// depend on the state's history (scratch buffers satisfy this by
/// construction; the equivalence is pinned by the sim's
/// parallel==serial tests).
pub fn parallel_map_indexed_with<S, R, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let idle: Mutex<Vec<S>> = Mutex::new(Vec::new());
    let job = |i: usize| {
        let mut state = lock(&idle).pop().unwrap_or_else(&init);
        let r = f(&mut state, i);
        lock(&idle).push(state);
        r
    };
    with_pool(resolve_threads(threads).min(n.max(1)), |pool| {
        pool.map((0..n).collect(), job)
    })
    .unwrap_or_else(|p| resume_unwind(p.payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_dsp::DspRng;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn preserves_index_order() {
        // Uneven per-item work: late indices finish first under
        // parallelism, results must still land in order.
        let r = parallel_map_indexed(32, 4, |i| {
            if i % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * i
        });
        assert_eq!(r, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = parallel_map_indexed(17, 1, |i| i as u64 * 0x9E37_79B9);
        let parallel = parallel_map_indexed(17, 3, |i| i as u64 * 0x9E37_79B9);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_single() {
        assert!(parallel_map_indexed(0, 4, |i| i).is_empty());
        assert_eq!(parallel_map_indexed(1, 0, |i| i + 7), vec![7]);
    }

    #[test]
    fn resolve_threads_zero_means_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn stateful_map_matches_stateless() {
        // Per-worker state must not leak into results when `f` only
        // uses it as scratch.
        let plain = parallel_map_indexed(23, 3, |i| i * 3 + 1);
        let stateful = parallel_map_indexed_with(23, 3, Vec::<usize>::new, |scratch, i| {
            scratch.push(i); // history the result must not depend on
            i * 3 + 1
        });
        assert_eq!(plain, stateful);
        // Serial path uses one state inline.
        let serial = parallel_map_indexed_with(23, 1, Vec::<usize>::new, |s, i| {
            s.push(i);
            s.len() // serial: state sees every index in order
        });
        assert_eq!(serial, (1..=23).collect::<Vec<_>>());
        assert!(parallel_map_indexed_with(0, 4, || (), |_, i| i).is_empty());
    }

    #[test]
    fn stages_borrow_what_outlives_the_pool() {
        // Each job borrows one `&mut` cell from outside the pool.
        let mut cells = vec![0u64; 9];
        for workers in [1, 2, 4] {
            let items: Vec<(usize, &mut u64)> = cells.iter_mut().enumerate().collect();
            let out = with_pool(workers, |pool| {
                pool.stage("lend", items, |(i, cell)| {
                    *cell += i as u64;
                    *cell
                })
            });
            assert_eq!(out.unwrap(), cells);
        }
        assert_eq!(cells, (0..9).map(|i| 3 * i).collect::<Vec<u64>>());
    }

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned within `secs` seconds, so a hang is a failure, not a
    /// stuck run.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(secs))
            .unwrap_or_else(|_| panic!("no result within {secs} s"))
    }

    #[test]
    fn a_panicking_job_is_a_typed_error_at_every_position() {
        for workers in [1, 2, 4] {
            for bad in [0, 5, 11] {
                let (got, next) = within(10, move || {
                    with_pool(workers, |pool| {
                        let got = pool.stage("probe", (0..12).collect(), move |i: usize| {
                            assert!(i != bad, "job {i} fails on purpose");
                            i
                        });
                        // The pool survives: its next stage runs clean.
                        (got, pool.stage("after", vec![1, 2, 3], |i| i * 2))
                    })
                });
                assert_eq!(
                    got,
                    Err(StageFailed {
                        stage: "probe",
                        index: bad
                    }),
                    "{workers} workers, panic at job {bad}"
                );
                assert_eq!(next, Ok(vec![2, 4, 6]));
            }
        }
    }

    #[test]
    fn sweeps_re_raise_a_job_panic_after_joining() {
        for threads in [1, 3] {
            let payload = catch_unwind(|| {
                parallel_map_indexed(8, threads, |i| assert!(i != 6, "sweep job fails"))
            })
            .expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"sweep job fails"));
        }
    }

    /// Spins (no sleep, so the thread stays runnable) for `us`
    /// microseconds and returns a value that depends only on `x`.
    fn spin(us: u64, x: u64) -> u64 {
        let t0 = Instant::now();
        let until = Duration::from_micros(us);
        while t0.elapsed() < until {
            std::hint::spin_loop();
        }
        x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
    }

    #[test]
    fn pool_stress_ordered_results_under_seeded_durations() {
        // 10k stages of 1–3 jobs with seeded 0–200 µs spins, at 1, 2
        // and 4 workers: every stage's results come back in index
        // order and equal the inline values bit for bit. Every 1000th
        // stage carries one panicking job at a seeded index, which
        // must surface as that stage's typed error. The 120 s budget
        // covers ≈ 2 s of spins per worker count on a loaded host.
        for workers in [1usize, 2, 4] {
            let report = within(120, move || {
                with_pool(workers, |pool| stress(pool, workers as u64))
            });
            assert_eq!(report, Ok(()), "{workers} workers");
        }
    }

    /// The stress run of one pool: see
    /// `pool_stress_ordered_results_under_seeded_durations`.
    fn stress(pool: &Pool<'_, '_>, seed: u64) -> Result<(), String> {
        const STAGES: u64 = 10_000;
        let mut rng = DspRng::seed_from(0x5EED ^ seed);
        for s in 0..STAGES {
            let jobs = 1 + rng.uniform_int(0, 2);
            let items: Vec<(u64, u64)> = (0..jobs)
                .map(|j| (s * 8 + j, rng.uniform_int(0, 200)))
                .collect();
            let bad = (s % 1000 == 999).then(|| rng.uniform_int(0, jobs - 1));
            let expect: Vec<u64> = items.iter().map(|&(x, _)| spin(0, x)).collect();
            let got = pool.stage("stress", items, move |(x, us)| {
                assert!(bad != Some(x - s * 8), "stress job fails on purpose");
                spin(us, x)
            });
            let want = match bad {
                Some(j) => Err(StageFailed {
                    stage: "stress",
                    index: usize::try_from(j).expect("small index"),
                }),
                None => Ok(expect),
            };
            if got != want {
                return Err(format!("stage {s}: {got:?} != {want:?}"));
            }
        }
        Ok(())
    }
}
