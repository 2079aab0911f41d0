//! Runs a measurement once on each core the process may use.
//!
//! On a shared host the cores' speeds differ and change independently
//! for seconds at a time: the same routed-fleet run measured 0.53 and
//! 1.05 million simulated requests/s on the two cores of one 2-core
//! machine at the same moment. A single-threaded timing then depends on
//! which core the thread happened to run on. Pinning the calling thread
//! to each allowed core in turn samples every core, so the fastest
//! sample is steady from run to run.

/// Most cores sampled per call, so a large machine does not multiply the
/// run time.
pub const MAX_CORES: usize = 4;
/// Words of the CPU mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

type Mask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU mask, if it can be read.
fn get() -> Option<Mask> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Sets the calling thread's CPU mask; whether it succeeded.
fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// The CPUs in `mask`, lowest first, at most [`MAX_CORES`].
fn cpus(mask: &Mask) -> Vec<usize> {
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .take(MAX_CORES)
        .collect()
}

/// Cores [`on_each_core`] samples: the calling thread's allowed CPUs, at
/// most [`MAX_CORES`], and at least 1.
#[must_use]
pub fn count() -> usize {
    get().map_or(1, |m| cpus(&m).len().max(1))
}

/// Runs `f` once pinned to each core the calling thread may run on (at
/// most [`MAX_CORES`]), then restores the thread's CPU mask. Threads the
/// caller already started are not moved. When the mask cannot be read or
/// changed, `f` runs once unpinned.
pub fn on_each_core<R>(mut f: impl FnMut() -> R) -> Vec<R> {
    let Some(original) = get() else {
        return vec![f()];
    };
    let mut out = Vec::new();
    for cpu in cpus(&original) {
        let mut one = [0u64; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        if set(&one) {
            out.push(f());
        }
    }
    set(&original);
    if out.is_empty() {
        out.push(f());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_once_per_core_and_restores_the_mask() {
        let before = get();
        let n = count();
        let mut calls = 0;
        let out = on_each_core(|| {
            calls += 1;
            calls
        });
        assert_eq!(out.len(), n);
        assert_eq!(calls, n);
        assert_eq!(get(), before);
    }

    #[test]
    fn mask_bits_name_cpus() {
        let mut m = [0u64; MASK_WORDS];
        m[0] = 0b101;
        m[1] = 1;
        assert_eq!(cpus(&m), vec![0, 2, 64]);
    }
}
