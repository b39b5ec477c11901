//! A minimal scoped-thread fork/join helper.
//!
//! The engine's waves are all embarrassingly parallel maps over job
//! slices, so a work-stealing pool would be overkill: threads claiming
//! small blocks of items in order balance load perfectly well when
//! per-item cost varies, and each result lands in its item's own slot,
//! which is what keeps the engine's output order (and therefore its
//! statistics) identical to the serial analyzer's.
//!
//! # Blocks, not items
//!
//! A wave over every pair of a batch has tens of thousands of items
//! that cost well under a microsecond each, so anything paid per item
//! shows: a clock read costs 42 ns on a 2-core Intel Xeon VM, and a
//! claim on a shared atomic index bounces its cache line between the
//! cores. Workers therefore claim blocks of up to [`MAX_BLOCK`] result
//! slots and fill them in place: one lock and a few clock reads per
//! block, and no per-worker result vector to grow and merge. On that
//! VM a two-worker engine run over PERFECT at scale 1 (17,972 pairs)
//! took 83–89 ms with per-item claims into per-worker vectors and
//! 52–55 ms with blocks.
//!
//! # Inline, then spill
//!
//! The calling thread is worker 0: it claims blocks itself, and spawns
//! the other `workers - 1` helpers only if blocks are still left once
//! it has worked on them for [`SPILL_AFTER_NANOS`]. A warm request's
//! waves are a few dozen memo probes each and finish inline with no
//! spawn at all; large waves and coarse items (leader solves,
//! per-program graph builds) still fan out, at most that much later.
//!
//! Spawning per wave is what made every wave pay for threads: a scoped
//! spawn plus join costs 16–18 µs per thread (34 µs for the two helpers
//! of a `workers = 2` wave) on a 2-core Intel Xeon VM, so a 10-pair warm
//! request's four waves spent more on spawns than on analysis. The
//! spill budget is a few spawns' worth of inline work: long enough that
//! cheap waves never spawn, short enough to be noise next to any wave
//! that needs helpers.

use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use dda_obs::{WaveReport, WorkerWork};

/// How long the calling thread works a wave alone before spawning
/// helpers for what is left (see the module docs for the measurement).
const SPILL_AFTER_NANOS: u64 = 50_000;

/// The most items a worker claims at once.
const MAX_BLOCK: usize = 64;

/// Applies `f` to every item, spreading work across up to `workers`
/// threads, and returns the results in item order — plus a measurement
/// of the wave: wall time and, per worker, items processed, busy
/// nanoseconds inside `f`, and the delay before the first item was
/// picked up. Worker 0 is the calling thread; helpers are spawned only
/// when the wave outlasts the inline budget, so a cheap wave reports
/// one worker. A single worker (or a trivial slice) is a plain serial
/// map whose one worker's busy time is the wall time.
///
/// The report is plain data (see [`WaveReport`]) so this module needs
/// no knowledge of the metrics registry, and writing each result into
/// its item's slot keeps results schedule-independent — only the
/// nanosecond readings (and, when helpers spawn, the per-worker task
/// split) vary run to run.
pub(crate) fn par_map_metered<T, R, F>(workers: usize, items: &[T], f: F) -> (Vec<R>, WaveReport)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let wave_start = Instant::now();
    if workers <= 1 || items.len() <= 1 {
        let out: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        let wall = elapsed_nanos(wave_start);
        let report = WaveReport {
            wall_nanos: wall,
            workers: vec![WorkerWork {
                tasks: items.len() as u64,
                busy_nanos: wall,
                queue_wait_nanos: 0,
            }],
        };
        return (out, report);
    }
    // Workers claim disjoint blocks of result slots and fill them in
    // place: no per-worker result vectors to grow and merge, and one
    // lock and a few clock reads per block rather than per item.
    let block = block_len(items.len(), workers);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let blocks = Mutex::new(out.chunks_mut(block).enumerate());
    // Fills claimed blocks until none are left or the worker has spent
    // `budget` nanoseconds on them. The budget runs from the worker's
    // first block, so one-off costs before it (the slot vector, a cold
    // first claim) do not count as work.
    let drain = |work: &mut WorkerWork, budget: u64| {
        let mut first_block: Option<Instant> = None;
        while first_block.is_none_or(|t| elapsed_nanos(t) < budget) {
            let Some((b, slots)) = blocks.lock().expect("wave blocks poisoned").next() else {
                break;
            };
            let block_start = Instant::now();
            first_block.get_or_insert(block_start);
            if work.tasks == 0 {
                work.queue_wait_nanos = nanos(block_start.duration_since(wave_start));
            }
            for (k, slot) in slots.iter_mut().enumerate() {
                let i = b * block + k;
                *slot = Some(f(i, &items[i]));
            }
            work.busy_nanos += elapsed_nanos(block_start);
            work.tasks += slots.len() as u64;
        }
    };
    let mut workers_work = vec![WorkerWork::default()];
    drain(&mut workers_work[0], SPILL_AFTER_NANOS);
    let left = blocks.lock().expect("wave blocks poisoned").len();
    if left > 0 {
        thread::scope(|scope| {
            let helpers: Vec<_> = (0..(workers - 1).min(left))
                .map(|_| {
                    scope.spawn(|| {
                        let mut work = WorkerWork::default();
                        drain(&mut work, u64::MAX);
                        work
                    })
                })
                .collect();
            drain(&mut workers_work[0], u64::MAX);
            for h in helpers {
                workers_work.push(h.join().expect("engine worker panicked"));
            }
        });
    }
    let report = WaveReport {
        wall_nanos: elapsed_nanos(wave_start),
        workers: workers_work,
    };
    let out = out
        .into_iter()
        .map(|r| r.expect("every index mapped exactly once"))
        .collect();
    (out, report)
}

/// Items per claimed block: small enough that coarse items (leader
/// solves, per-program graph builds) still spread evenly over the
/// workers, large enough that cheap per-pair items pay for the claim
/// and the clock reads only once per block.
fn block_len(items: usize, workers: usize) -> usize {
    (items / workers.saturating_mul(16)).clamp(1, MAX_BLOCK)
}

fn elapsed_nanos(since: Instant) -> u64 {
    nanos(since.elapsed())
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        par_map_metered(workers, items, f).0
    }

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..257).collect();
        for workers in [1, 2, 3, 8] {
            let out = par_map(workers, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3 + 1
            });
            assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_slices() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(4, &none, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn more_workers_than_items() {
        let items = [1u64, 2, 3];
        assert_eq!(par_map(64, &items, |_, &x| x * x), vec![1, 4, 9]);
    }

    #[test]
    fn metered_serial_fallback_reports_one_worker() {
        let items: Vec<u32> = (0..5).collect();
        let (out, wave) = par_map_metered(1, &items, |_, &x| x + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(wave.workers.len(), 1);
        assert_eq!(wave.workers[0].tasks, 5);
        assert_eq!(wave.workers[0].queue_wait_nanos, 0);
        assert_eq!(wave.workers[0].busy_nanos, wave.wall_nanos);
    }

    #[test]
    fn metered_parallel_task_counts_sum_to_items() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [2, 4, 7] {
            let (out, wave) = par_map_metered(workers, &items, |_, &x| x * 2);
            assert_eq!(out.len(), 100);
            assert!(wave.workers.len() <= workers);
            let total: u64 = wave.workers.iter().map(|w| w.tasks).sum();
            assert_eq!(total, 100, "every item is counted exactly once");
        }
    }

    #[test]
    fn cheap_wave_runs_inline_without_spawning() {
        let items: Vec<u64> = (0..10).collect();
        let (out, wave) = par_map_metered(4, &items, |_, &x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(wave.workers.len(), 1, "a cheap wave spawned helpers");
        assert_eq!(wave.workers[0].tasks, 10);
    }

    #[test]
    fn slow_wave_spills_to_helpers_and_keeps_order() {
        let items: Vec<usize> = (0..8).collect();
        let (out, wave) = par_map_metered(4, &items, |i, &x| {
            assert_eq!(i, x);
            std::thread::sleep(std::time::Duration::from_millis(1));
            x + 100
        });
        assert_eq!(out, items.iter().map(|x| x + 100).collect::<Vec<_>>());
        assert!(wave.workers.len() > 1, "a 1 ms-per-item wave never spilled");
        let total: u64 = wave.workers.iter().map(|w| w.tasks).sum();
        assert_eq!(total, 8);
    }
}
