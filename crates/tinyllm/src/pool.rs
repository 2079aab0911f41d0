//! The persistent worker pool behind the parallel compute path.
//!
//! One pool is spawned per [`crate::engine::Model`] (not per call) and
//! shared by clones of that model. It serves two job kinds:
//!
//! - **GEMM strips** — the N dimension of a packed GEMM is split into
//!   column strips that start on weight-panel boundaries, one per lane.
//!   Workers compute their strips into recycled per-worker buffers; the
//!   calling thread computes strip 0 directly into the destination (using
//!   the stride-aware kernel) and then gathers the worker strips. Because
//!   every output element's multiply-add chain is independent of the
//!   strip split (`tensor.rs` invariant), threaded output is
//!   bit-identical to serial.
//! - **Attention rows** — batched fused attention farms contiguous row
//!   ranges to workers. Inputs are staged into an `AttnStage` (query
//!   rows, per-row block tables, cache geometry) plus an `Arc` read
//!   handle on the KV storage (bf16 bits), so jobs are `'static` without `unsafe`
//!   (the workspace denies it).
//!
//! Workers only run kernels and never dispatch, so a job can never wait
//! on the pool it runs in.
//!
//! A forward pass dispatches ~31 times, a few hundred microseconds
//! apart, and waking a thread blocked in the kernel costs tens of
//! microseconds. So a waiting thread — a worker between jobs, or the
//! dispatcher gathering strips — first polls its channel for `SPIN`,
//! yielding the core on each miss, and only then blocks. The yield keeps
//! an oversubscribed pool (more lanes than cores) moving.
//!
//! The hot path stays zero-alloc at steady state: staged activation and
//! attention buffers live in `Arc`s that are exclusively reclaimed
//! between dispatches (workers drop their handles before signaling
//! completion), and each worker's output strip buffer is recycled
//! through the channel round-trip.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use distserve_prof as prof;

use crate::engine::{attn_rows_strip, AttnScratch, AttnStage};
use crate::tensor::{Kernel, NR};

/// Minimum multiply-adds per GEMM before a parallel dispatch pays for
/// its staging copy and wakeup latency; below it the call runs serial.
const GEMM_PAR_MIN: usize = 32 * 1024;

/// Minimum score+value multiply-adds before attention rows are farmed
/// out.
const ATTN_PAR_MIN: usize = 16 * 1024;

/// How long a waiting thread polls its channel before it blocks: longer
/// than the gap between a forward pass's dispatches, short enough that
/// an idle pool stops burning its cores at once.
const SPIN: Duration = Duration::from_micros(200);

/// One unit of work sent to a worker.
enum Job {
    /// Compute `strip = act × kern[:, col_lo..col_lo+width]`.
    Gemm {
        kern: Kernel,
        act: Arc<Vec<f32>>,
        m: usize,
        col_lo: usize,
        width: usize,
        strip: Vec<f32>,
    },
    /// Run fused attention for staged rows `row_lo..row_hi`.
    Attn {
        stage: Arc<AttnStage>,
        storage: Arc<Vec<u16>>,
        row_lo: usize,
        row_hi: usize,
        strip: Vec<f32>,
    },
}

/// Cumulative per-worker time accounting, written by the worker thread
/// with relaxed stores and read by [`WorkerPool::utilization`]. Busy is
/// time executing a job; idle is time waiting for one, polling or
/// blocked.
#[derive(Debug, Default)]
struct WorkerStats {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    jobs: AtomicU64,
    /// Waits that outlasted `SPIN` and blocked.
    blocks: AtomicU64,
}

/// One worker's utilization snapshot (see [`PoolUtilization`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerUtil {
    /// Seconds spent executing jobs since the worker spawned.
    pub busy_s: f64,
    /// Seconds spent waiting for work, polling or blocked.
    pub idle_s: f64,
    /// Jobs completed.
    pub jobs: u64,
}

impl WorkerUtil {
    /// Busy share of the worker's observed lifetime (0 before any job).
    #[must_use]
    pub fn busy_frac(&self) -> f64 {
        let span = self.busy_s + self.idle_s;
        if span <= 0.0 {
            0.0
        } else {
            self.busy_s / span
        }
    }
}

/// Point-in-time pool accounting: per-worker busy/idle plus the
/// dispatcher-side time spent blocked gathering worker strips.
#[derive(Debug, Clone, Default)]
pub struct PoolUtilization {
    /// Compute lanes the pool was built with (callers + workers).
    pub lanes: usize,
    /// One entry per spawned worker, in lane order.
    pub workers: Vec<WorkerUtil>,
    /// Seconds dispatching threads spent blocked in strip gathers.
    pub dispatch_wait_s: f64,
    /// Parallel dispatches issued (GEMM + attention).
    pub dispatches: u64,
}

/// Main-thread handle to one worker.
struct Worker {
    tx: Sender<Job>,
    rx: Receiver<Vec<f32>>,
    /// Recycled strip buffer from the worker's last reply.
    spare: Option<Vec<f32>>,
    stats: Arc<WorkerStats>,
    handle: Option<JoinHandle<()>>,
}

/// State behind the pool's mutex: the workers plus the staged-input
/// buffers reused across dispatches.
struct PoolInner {
    workers: Vec<Worker>,
    act: Arc<Vec<f32>>,
    stage: Arc<AttnStage>,
    main_attn: AttnScratch,
}

impl PoolInner {
    /// Grows the worker vec to at least `n` live workers.
    fn ensure_workers(&mut self, n: usize) {
        while self.workers.len() < n {
            let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
            let (out_tx, out_rx) = std::sync::mpsc::channel::<Vec<f32>>();
            let stats = Arc::new(WorkerStats::default());
            let worker_stats = Arc::clone(&stats);
            let handle = std::thread::Builder::new()
                .name(format!("tinyllm-pool-{}", self.workers.len()))
                .spawn(move || worker_loop(&job_rx, &out_tx, &worker_stats))
                .expect("spawn pool worker");
            self.workers.push(Worker {
                tx: job_tx,
                rx: out_rx,
                spare: None,
                stats,
                handle: Some(handle),
            });
        }
    }

    /// Exclusive access to a staged `Arc` buffer. Workers drop their
    /// handles before signaling completion, so the count is normally 1;
    /// a surviving stale handle just costs a fresh allocation.
    fn exclusive_act(&mut self) -> &mut Vec<f32> {
        if Arc::get_mut(&mut self.act).is_none() {
            self.act = Arc::new(Vec::new());
        }
        Arc::get_mut(&mut self.act).expect("fresh arc is unshared")
    }

    /// Exclusive access to the staged attention inputs (same contract as
    /// [`Self::exclusive_act`]).
    fn exclusive_stage(&mut self) -> &mut AttnStage {
        if Arc::get_mut(&mut self.stage).is_none() {
            self.stage = Arc::new(AttnStage::default());
        }
        Arc::get_mut(&mut self.stage).expect("fresh arc is unshared")
    }
}

/// Polls `rx` for up to `SPIN`, yielding the core on each miss. `Empty`
/// means the window passed with nothing sent.
fn poll<T>(rx: &Receiver<T>) -> Result<T, TryRecvError> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Err(TryRecvError::Empty) if start.elapsed() < SPIN => std::thread::yield_now(),
            got => return got,
        }
    }
}

/// Receives from `rx`: polls for `SPIN`, then blocks.
fn recv<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    poll(rx).or_else(|_| rx.recv())
}

fn worker_loop(jobs: &Receiver<Job>, out: &Sender<Vec<f32>>, stats: &WorkerStats) {
    let mut attn_scr = AttnScratch::default();
    loop {
        let waited = Instant::now();
        let job = match poll(jobs) {
            Ok(job) => job,
            Err(TryRecvError::Empty) => {
                stats.blocks.fetch_add(1, Ordering::Relaxed);
                let Ok(job) = jobs.recv() else { break };
                job
            }
            Err(TryRecvError::Disconnected) => break,
        };
        stats
            .idle_ns
            .fetch_add(elapsed_ns(waited), Ordering::Relaxed);
        let working = Instant::now();
        let delivered = match job {
            Job::Gemm {
                kern,
                act,
                m,
                col_lo,
                width,
                mut strip,
            } => {
                let _prof = prof::scope("pool_gemm_job");
                strip.resize(m * width, 0.0);
                kern.gemm_strip(&act, m, col_lo, width, width, &mut strip);
                // Release the staged-input handles *before* replying so
                // the dispatcher can reclaim the buffers exclusively on
                // its next call.
                drop(act);
                drop(kern);
                out.send(strip).is_ok()
            }
            Job::Attn {
                stage,
                storage,
                row_lo,
                row_hi,
                mut strip,
            } => {
                let _prof = prof::scope("pool_attn_job");
                let width = stage.heads * stage.d;
                strip.resize((row_hi - row_lo) * width, 0.0);
                attn_rows_strip(&stage, &storage, row_lo, row_hi, &mut attn_scr, &mut strip);
                drop(stage);
                drop(storage);
                out.send(strip).is_ok()
            }
        };
        stats
            .busy_ns
            .fetch_add(elapsed_ns(working), Ordering::Relaxed);
        stats.jobs.fetch_add(1, Ordering::Relaxed);
        if !delivered {
            break;
        }
    }
}

/// Elapsed nanoseconds since `t`, saturating.
fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A persistent thread pool owned by a model (see module docs).
#[derive(Debug)]
pub struct WorkerPool {
    /// Lanes used for data-parallel strip work, including the caller's
    /// thread: `lanes` of compute means `lanes - 1` workers.
    lanes: usize,
    /// Dispatcher time blocked gathering worker strips (all callers).
    dispatch_wait_ns: AtomicU64,
    /// Parallel dispatches issued.
    dispatches: AtomicU64,
    inner: Mutex<PoolInner>,
}

impl std::fmt::Debug for PoolInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolInner")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool that computes with `lanes` threads total (the
    /// caller's plus `lanes - 1` persistent workers, spawned lazily on
    /// first parallel dispatch).
    #[must_use]
    pub fn new(lanes: usize) -> Self {
        WorkerPool {
            lanes: lanes.max(1),
            dispatch_wait_ns: AtomicU64::new(0),
            dispatches: AtomicU64::new(0),
            inner: Mutex::new(PoolInner {
                workers: Vec::new(),
                act: Arc::new(Vec::new()),
                stage: Arc::new(AttnStage::default()),
                main_attn: AttnScratch::default(),
            }),
        }
    }

    /// Compute lanes (threads, including the caller's).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Snapshot of per-worker busy/idle time and dispatcher gather
    /// waits. Cheap enough to publish every scheduler step: a few
    /// relaxed atomic loads per worker under the pool lock.
    #[must_use]
    pub fn utilization(&self) -> PoolUtilization {
        let inner = self.inner.lock().expect("pool lock");
        PoolUtilization {
            lanes: self.lanes,
            workers: inner
                .workers
                .iter()
                .map(|w| WorkerUtil {
                    busy_s: w.stats.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
                    idle_s: w.stats.idle_ns.load(Ordering::Relaxed) as f64 * 1e-9,
                    jobs: w.stats.jobs.load(Ordering::Relaxed),
                })
                .collect(),
            dispatch_wait_s: self.dispatch_wait_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            dispatches: self.dispatches.load(Ordering::Relaxed),
        }
    }

    /// How many lanes a `(m × depth) × (depth × width)` GEMM should use.
    fn gemm_lanes(&self, m: usize, depth: usize, width: usize) -> usize {
        if self.lanes <= 1 {
            return 1;
        }
        let work = m * depth * width;
        self.lanes.min(width / NR).min(work / GEMM_PAR_MIN).max(1)
    }

    /// `out[m × n] = a[m × k] × kern`, split across lanes when the work
    /// justifies it; serial (and bit-identical) otherwise.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths disagree with the kernel's shape, or if a
    /// worker died mid-job.
    pub fn gemm(&self, kern: &Kernel, a: &[f32], m: usize, out: &mut [f32]) {
        let (depth, width) = (kern.k(), kern.n());
        assert_eq!(a.len(), m * depth, "activation shape");
        assert_eq!(out.len(), m * width, "output shape");
        let lanes = self.gemm_lanes(m, depth, width);
        if lanes <= 1 {
            kern.gemm_strip(a, m, 0, width, width, out);
            return;
        }
        let mut guard = self.inner.lock().expect("pool lock");
        let inner = &mut *guard;
        // Strip boundaries on weight panels (`NR` columns each); every
        // strip is non-empty because `lanes <= width / NR`.
        let bound = |i: usize| {
            if i == lanes {
                width
            } else {
                width * i / lanes / NR * NR
            }
        };
        {
            let _prof = prof::scope("pool_dispatch");
            inner.ensure_workers(lanes - 1);
            let staged = inner.exclusive_act();
            staged.clear();
            staged.extend_from_slice(a);
            for lane in 1..lanes {
                let (lo, hi) = (bound(lane), bound(lane + 1));
                let worker = &mut inner.workers[lane - 1];
                let strip = worker.spare.take().unwrap_or_default();
                worker
                    .tx
                    .send(Job::Gemm {
                        kern: kern.clone(),
                        act: Arc::clone(&inner.act),
                        m,
                        col_lo: lo,
                        width: hi - lo,
                        strip,
                    })
                    .expect("pool worker alive");
            }
        }
        // The calling thread is lane 0: strip 0 goes straight into `out`
        // via the stride-aware kernel while the workers run.
        kern.gemm_strip(a, m, 0, bound(1), width, out);
        let _prof = prof::scope("pool_gather");
        let mut wait_ns = 0u64;
        for lane in 1..lanes {
            let (lo, hi) = (bound(lane), bound(lane + 1));
            let sw = hi - lo;
            let worker = &mut inner.workers[lane - 1];
            let waited = Instant::now();
            let strip = recv(&worker.rx).expect("pool worker completed");
            wait_ns += elapsed_ns(waited);
            for r in 0..m {
                out[r * width + lo..r * width + hi].copy_from_slice(&strip[r * sw..(r + 1) * sw]);
            }
            worker.spare = Some(strip);
        }
        self.dispatch_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
        self.dispatches.fetch_add(1, Ordering::Relaxed);
    }

    /// How many lanes a batched attention pass of `m` rows and roughly
    /// `work` multiply-adds should use.
    pub(crate) fn attn_lanes(&self, m: usize, work: usize) -> usize {
        if self.lanes <= 1 {
            return 1;
        }
        self.lanes.min(m).min(work / ATTN_PAR_MIN).max(1)
    }

    /// Farms staged attention rows across `lanes` threads. `fill`
    /// populates the reused [`AttnStage`]; `out` is the dense
    /// `(m × width)` destination. Row ranges are contiguous, so worker
    /// strips gather with single copies. Bit-identical to the serial
    /// per-row loop: each row's computation is untouched by the split.
    ///
    /// # Panics
    ///
    /// Panics if a worker died mid-job.
    pub(crate) fn attn_rows(
        &self,
        lanes: usize,
        storage: &Arc<Vec<u16>>,
        fill: impl FnOnce(&mut AttnStage),
        m: usize,
        width: usize,
        out: &mut [f32],
    ) {
        debug_assert!(lanes >= 2);
        debug_assert_eq!(out.len(), m * width, "output shape");
        let mut guard = self.inner.lock().expect("pool lock");
        let inner = &mut *guard;
        let bound = |i: usize| m * i / lanes;
        {
            let _prof = prof::scope("pool_dispatch");
            inner.ensure_workers(lanes - 1);
            fill(inner.exclusive_stage());
            for lane in 1..lanes {
                let (lo, hi) = (bound(lane), bound(lane + 1));
                let worker = &mut inner.workers[lane - 1];
                let strip = worker.spare.take().unwrap_or_default();
                worker
                    .tx
                    .send(Job::Attn {
                        stage: Arc::clone(&inner.stage),
                        storage: Arc::clone(storage),
                        row_lo: lo,
                        row_hi: hi,
                        strip,
                    })
                    .expect("pool worker alive");
            }
        }
        attn_rows_strip(
            &inner.stage,
            storage,
            0,
            bound(1),
            &mut inner.main_attn,
            &mut out[..bound(1) * width],
        );
        let _prof = prof::scope("pool_gather");
        let mut wait_ns = 0u64;
        for lane in 1..lanes {
            let (lo, hi) = (bound(lane), bound(lane + 1));
            let worker = &mut inner.workers[lane - 1];
            let waited = Instant::now();
            let strip = recv(&worker.rx).expect("pool worker completed");
            wait_ns += elapsed_ns(waited);
            out[lo * width..hi * width].copy_from_slice(&strip);
            worker.spare = Some(strip);
        }
        self.dispatch_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
        self.dispatches.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let inner = self.inner.get_mut().expect("pool lock");
        for w in &mut inner.workers {
            // Dropping the sender closes the worker's queue; it exits
            // after draining.
            let (closed_tx, _) = std::sync::mpsc::channel();
            w.tx = closed_tx;
            drop(std::mem::replace(&mut w.rx, std::sync::mpsc::channel().1));
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{Bf16, Matrix, PackedMatrix};

    fn test_weight(k: usize, n: usize) -> Matrix<Bf16> {
        Matrix::from_vec(
            k,
            n,
            (0..k * n)
                .map(|i| Bf16::from_f32(((i * 37 + 11) % 97) as f32 * 0.03 - 1.4))
                .collect(),
        )
    }

    fn test_act(m: usize, k: usize) -> Vec<f32> {
        (0..m * k)
            .map(|i| ((i * 53 + 5) % 89) as f32 * 0.021 - 0.9)
            .collect()
    }

    #[test]
    fn threaded_gemm_bit_matches_serial() {
        // Big enough to clear the parallel threshold with several lanes.
        let (m, k, n) = (16, 96, 512);
        let a = test_act(m, k);
        let w = Kernel::F32(PackedMatrix::pack(&test_weight(k, n)));
        let mut serial = vec![0.0; m * n];
        WorkerPool::new(1).gemm(&w, &a, m, &mut serial);
        for lanes in [2, 3, 5, 8] {
            let pool = WorkerPool::new(lanes);
            let mut out = vec![7.0f32; m * n];
            pool.gemm(&w, &a, m, &mut out);
            assert_eq!(out, serial, "lanes {lanes}");
        }
    }

    #[test]
    fn small_gemm_stays_serial_and_correct() {
        let (m, k, n) = (2, 8, 24);
        let a = test_act(m, k);
        let mat = test_weight(k, n);
        let w = Kernel::F32(PackedMatrix::pack(&mat));
        let pool = WorkerPool::new(8);
        assert_eq!(pool.gemm_lanes(m, k, n), 1);
        let mut out = vec![0.0; m * n];
        pool.gemm(&w, &a, m, &mut out);
        let reference = Matrix::from_vec(m, k, a).matmul(&mat);
        assert_eq!(out, *reference.data);
    }

    #[test]
    fn utilization_accounts_busy_idle_and_dispatch_wait() {
        let (m, k, n) = (16, 96, 512);
        let a = test_act(m, k);
        let w = Kernel::F32(PackedMatrix::pack(&test_weight(k, n)));
        let pool = WorkerPool::new(4);
        let empty = pool.utilization();
        assert_eq!(empty.lanes, 4);
        assert!(empty.workers.is_empty(), "workers spawn lazily");
        let mut out = vec![0.0; m * n];
        for _ in 0..8 {
            pool.gemm(&w, &a, m, &mut out);
        }
        // Let workers settle back into their recv so idle registers.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let u = pool.utilization();
        assert_eq!(u.workers.len(), 3, "lanes - 1 workers spawned");
        assert_eq!(u.dispatches, 8);
        for (i, wk) in u.workers.iter().enumerate() {
            assert_eq!(wk.jobs, 8, "worker {i} ran every dispatch");
            assert!(wk.busy_s > 0.0, "worker {i} accumulated busy time");
            assert!(wk.idle_s > 0.0, "worker {i} accumulated idle time");
            assert!((0.0..=1.0).contains(&wk.busy_frac()));
        }
        assert!(u.dispatch_wait_s >= 0.0);
    }

    #[test]
    fn idle_workers_block_and_drop_joins_them() {
        let (m, k, n) = (16, 96, 512);
        let a = test_act(m, k);
        let w = Kernel::F32(PackedMatrix::pack(&test_weight(k, n)));
        let pool = WorkerPool::new(3);
        let mut out = vec![0.0; m * n];
        pool.gemm(&w, &a, m, &mut out);
        // Far past the spin window: every worker has stopped polling.
        std::thread::sleep(SPIN * 50);
        let stats: Vec<Arc<WorkerStats>> = {
            let inner = pool.inner.lock().expect("pool lock");
            inner.workers.iter().map(|w| Arc::clone(&w.stats)).collect()
        };
        assert_eq!(stats.len(), 2);
        for (i, s) in stats.iter().enumerate() {
            assert!(s.blocks.load(Ordering::Relaxed) >= 1, "worker {i} blocked");
        }
        // A blocked worker still wakes for the next dispatch.
        pool.gemm(&w, &a, m, &mut out);
        drop(pool);
        // Each worker thread owns the other handle on its stats; joined
        // threads have dropped theirs.
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.jobs.load(Ordering::Relaxed), 2, "worker {i}");
            assert_eq!(Arc::strong_count(s), 1, "worker {i} joined");
        }
    }
}
