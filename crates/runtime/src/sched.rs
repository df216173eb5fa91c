//! Pluggable block-graph executors.
//!
//! A [`Scheduler`] runs a set of [`Block`]s alongside one *controller*
//! closure — the sequential brain of the graph (in `anc-sim`, the
//! engine's slot loop: it resolves stateful decisions in intent order,
//! feeds pure jobs into the blocks' rings, and folds outcomes back in
//! order). The controller drives progress through a [`Pump`]: whenever
//! a ring it wants to pop from is empty (or push into is full), it
//! pumps and retries.
//!
//! Two executors:
//!
//! * [`DeterministicScheduler`] — everything inline on the calling
//!   thread; each pump polls every block once in insertion order. A
//!   pump that makes no progress while the controller is still waiting
//!   is a wired-graph deadlock, which the pump reports (`false`) so
//!   the caller can surface a typed error instead of hanging.
//! * [`WorkStealingScheduler`] — N-1 scoped worker threads plus the
//!   controller thread all scan the shared block list, `try_lock`ing
//!   each block and polling the ones they win (the claim *is* the
//!   steal). Blocks whose inputs are pure functions of their rings
//!   compute identical values under both executors.

use crate::block::{Block, BlockStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, TryLockError};

/// The controller's handle for driving block progress while it waits
/// on a ring.
pub trait Pump {
    /// Attempts to advance the graph; returns whether any block made
    /// progress. A deterministic pump returning `false` means the
    /// graph cannot advance — if the controller is still waiting for
    /// data, the graph is wired wrong (deadlock). Concurrent pumps
    /// conservatively return `true` (workers may be mid-poll) unless a
    /// block panicked, which stalls the graph for good.
    fn pump(&mut self) -> bool;
}

/// The boxed controller closure a [`Scheduler`] runs alongside its
/// blocks.
pub type Controller<'env, R> = Box<dyn FnOnce(&mut dyn Pump) -> R + 'env>;

/// A block-graph executor. Not object-safe (the controller closure and
/// its return type are generic); callers dispatch on a concrete
/// executor.
pub trait Scheduler {
    /// Runs `controller` to completion, executing `blocks` alongside
    /// it, and returns the controller's result. All blocks are dropped
    /// (and any worker threads joined) before this returns.
    fn run<'env, R>(
        &self,
        blocks: Vec<Box<dyn Block + 'env>>,
        controller: Controller<'env, R>,
    ) -> R;
}

/// Inline single-threaded execution in insertion order — the
/// bit-reproducible reference executor (and the only sensible choice
/// inside an already-parallel Monte Carlo worker pool).
#[derive(Debug, Default, Clone, Copy)]
pub struct DeterministicScheduler;

struct InlinePump<'a, 'env> {
    blocks: &'a mut [Box<dyn Block + 'env>],
}

impl Pump for InlinePump<'_, '_> {
    fn pump(&mut self) -> bool {
        let mut progressed = false;
        for block in self.blocks.iter_mut() {
            if block.poll() == BlockStatus::Progress {
                progressed = true;
            }
        }
        progressed
    }
}

impl Scheduler for DeterministicScheduler {
    fn run<'env, R>(
        &self,
        mut blocks: Vec<Box<dyn Block + 'env>>,
        controller: Controller<'env, R>,
    ) -> R {
        controller(&mut InlinePump {
            blocks: &mut blocks,
        })
    }
}

/// Scoped worker threads scanning the shared block list; the
/// controller thread steals work too while it waits, so the graph
/// can always advance even on a single core.
#[derive(Debug, Clone, Copy)]
pub struct WorkStealingScheduler {
    workers: usize,
}

impl WorkStealingScheduler {
    /// An executor with `workers` total threads (including the
    /// controller's); values below 1 are clamped to 1.
    pub fn new(workers: usize) -> Self {
        WorkStealingScheduler {
            workers: workers.max(1),
        }
    }

    /// Total threads this executor will use.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

/// What one [`sweep`] over the block list saw.
#[derive(Default)]
struct Sweep {
    /// Some polled block progressed.
    progressed: bool,
    /// Some block's lock is poisoned: its poll panicked, so it will
    /// never run again.
    poisoned: bool,
}

/// One scan over the block list, polling every block whose lock is
/// won.
fn sweep<'env>(cells: &[Mutex<Box<dyn Block + 'env>>]) -> Sweep {
    let mut seen = Sweep::default();
    for cell in cells {
        match cell.try_lock() {
            Ok(mut block) => {
                if block.poll() == BlockStatus::Progress {
                    seen.progressed = true;
                }
            }
            Err(TryLockError::Poisoned(_)) => seen.poisoned = true,
            Err(TryLockError::WouldBlock) => {}
        }
    }
    seen
}

struct StealPump<'a, 'env> {
    cells: &'a [Mutex<Box<dyn Block + 'env>>],
}

impl Pump for StealPump<'_, '_> {
    fn pump(&mut self) -> bool {
        // Workers may be mid-poll on the block this controller needs;
        // "no progress observed here" proves nothing, so a concurrent
        // pump reports a stall only once a block has panicked.
        !sweep(self.cells).poisoned
    }
}

/// Raises the workers' stop flag when dropped, so they exit even when
/// the controller unwinds.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

impl Scheduler for WorkStealingScheduler {
    fn run<'env, R>(
        &self,
        blocks: Vec<Box<dyn Block + 'env>>,
        controller: Controller<'env, R>,
    ) -> R {
        let cells: Vec<Mutex<Box<dyn Block + 'env>>> = blocks.into_iter().map(Mutex::new).collect();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 1..self.workers {
                scope.spawn(|| {
                    while !done.load(Ordering::Acquire) {
                        if !sweep(&cells).progressed {
                            // Nothing runnable: back off briefly instead
                            // of burning the core the controller needs.
                            std::thread::sleep(std::time::Duration::from_micros(20));
                        }
                    }
                });
            }
            // A panicking worker leaves its block poisoned, which stalls
            // the controller's pump; the scope then re-raises the panic.
            let _stop = StopOnDrop(&done);
            controller(&mut StealPump { cells: &cells })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{channel, Consumer, Producer};

    /// An adder stage used to wire a two-stage pipeline in the tests.
    struct AddStage {
        delta: u64,
        input: Consumer<u64>,
        output: Producer<u64>,
        staged: Option<u64>,
    }

    impl Block for AddStage {
        fn poll(&mut self) -> BlockStatus {
            let mut progressed = false;
            loop {
                if let Some(v) = self.staged.take() {
                    if let Err(v) = self.output.try_push(v) {
                        self.staged = Some(v);
                        break;
                    }
                    progressed = true;
                }
                match self.input.try_pop() {
                    Some(v) => self.staged = Some(v + self.delta),
                    None => break,
                }
            }
            if progressed {
                BlockStatus::Progress
            } else {
                BlockStatus::Idle
            }
        }
    }

    fn pipeline_sum<S: Scheduler>(sched: &S, capacity: usize, items: u64) -> u64 {
        let (mut feed, stage1_in) = channel(capacity);
        let (stage1_out, stage2_in) = channel(capacity);
        let (stage2_out, mut sink) = channel(capacity);
        let blocks: Vec<Box<dyn Block>> = vec![
            Box::new(AddStage {
                delta: 10,
                input: stage1_in,
                output: stage1_out,
                staged: None,
            }),
            Box::new(AddStage {
                delta: 100,
                input: stage2_in,
                output: stage2_out,
                staged: None,
            }),
        ];
        sched.run(
            blocks,
            Box::new(move |pump: &mut dyn Pump| {
                let (mut sum, mut popped) = (0u64, 0u64);
                for i in 0..items {
                    let mut v = i;
                    loop {
                        match feed.try_push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                assert!(pump.pump() || !sink.is_empty(), "graph stalled");
                            }
                        }
                    }
                    // Drain opportunistically so capacity-1 rings never
                    // wedge the feed loop.
                    while let Some(out) = sink.try_pop() {
                        sum += out;
                        popped += 1;
                    }
                }
                while popped < items {
                    match sink.try_pop() {
                        Some(out) => {
                            sum += out;
                            popped += 1;
                        }
                        None => {
                            pump.pump();
                        }
                    }
                }
                sum
            }),
        )
    }

    #[test]
    fn deterministic_pipeline_totals() {
        let n = 50u64;
        let expect: u64 = (0..n).map(|i| i + 110).sum();
        for capacity in [1usize, 2, 8] {
            assert_eq!(
                pipeline_sum(&DeterministicScheduler, capacity, n),
                expect,
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn work_stealing_matches_deterministic() {
        let n = 200u64;
        let expect: u64 = (0..n).map(|i| i + 110).sum();
        for capacity in [1usize, 3, 8] {
            for workers in [1usize, 2, 4] {
                assert_eq!(
                    pipeline_sum(&WorkStealingScheduler::new(workers), capacity, n),
                    expect,
                    "capacity {capacity}, workers {workers}"
                );
            }
        }
    }

    #[test]
    fn deterministic_pump_reports_stall() {
        // A consumer waiting on a ring nobody feeds: the inline pump
        // must report no progress instead of spinning forever.
        let (_feed, input) = channel::<u64>(2);
        let (output, _sink) = channel::<u64>(2);
        let blocks: Vec<Box<dyn Block>> = vec![Box::new(AddStage {
            delta: 1,
            input,
            output,
            staged: None,
        })];
        let stalled =
            DeterministicScheduler.run(blocks, Box::new(|pump: &mut dyn Pump| !pump.pump()));
        assert!(stalled, "an unfed graph must report a stall");
    }

    /// A block whose every poll panics.
    struct Exploding;

    impl Block for Exploding {
        fn poll(&mut self) -> BlockStatus {
            panic!("block poll failed");
        }
    }

    #[test]
    fn block_panic_ends_a_work_stealing_run() {
        // Whichever thread polls the failing block — a worker or the
        // controller — the panic must surface out of `run` instead of
        // leaving the controller spinning or the workers unjoined.
        for workers in [1usize, 2, 4] {
            let (done, finished) = std::sync::mpsc::channel();
            // The run gets its own thread so a hang fails the test on a
            // timeout instead of wedging the suite.
            let runner = std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(|| {
                    let blocks: Vec<Box<dyn Block>> = vec![Box::new(Exploding)];
                    WorkStealingScheduler::new(workers)
                        .run(blocks, Box::new(|pump: &mut dyn Pump| while pump.pump() {}))
                });
                let _ = done.send(outcome.is_err());
            });
            let panicked = finished
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{workers} workers: run hung after a block panic"));
            runner.join().expect("the runner catches the run's panic");
            assert!(panicked, "{workers} workers: the block panic was swallowed");
        }
    }
}
