//! Moving the timed loop from CPU to CPU.
//!
//! On a shared virtual machine one virtual CPU can run at half speed for
//! seconds at a time while another runs at full speed, with no steal time
//! reported in the guest. A process that stays where the scheduler first
//! put it can then read up to 2x slow over a whole run. A run that moves
//! between every CPU it may use, once a second, times each of them, so
//! its low percentile reads full speed unless every CPU is slow for most
//! of the run.

/// Bits of the affinity mask passed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;
type Mask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn get() -> Option<Mask> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    let rc = unsafe { sched_getaffinity(0, size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set(mask: &Mask) -> bool {
    // SAFETY: the kernel reads `size` bytes from `mask`.
    unsafe { sched_setaffinity(0, size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// Moves the calling thread round the CPUs it was allowed at creation and
/// gives it all of them back when dropped.
pub struct Rotation {
    allowed: Mask,
    cpus: Vec<usize>,
    next: usize,
}

impl Rotation {
    /// `None` where the affinity cannot be read, or only one CPU is
    /// allowed: there is nowhere to move to.
    pub fn new() -> Option<Self> {
        let allowed = get()?;
        let cpus: Vec<usize> = (0..MASK_WORDS * 64)
            .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        (cpus.len() > 1).then_some(Rotation {
            allowed,
            cpus,
            next: 0,
        })
    }

    /// Pin the thread to the next CPU in turn. A CPU that refuses (taken
    /// away since) is skipped; the thread then stays where it was.
    pub fn advance(&mut self) {
        let cpu = self.cpus[self.next];
        self.next = (self.next + 1) % self.cpus.len();
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        set(&mask);
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        set(&self.allowed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_visits_each_allowed_cpu_and_restores_the_mask() {
        let Some(before) = get() else { return };
        if let Some(mut r) = Rotation::new() {
            for &cpu in &r.cpus.clone() {
                r.advance();
                let now = get().expect("affinity readable");
                let mut want = [0u64; MASK_WORDS];
                want[cpu / 64] = 1 << (cpu % 64);
                assert_eq!(now, want, "pinned to cpu {cpu}");
            }
        }
        assert_eq!(get(), Some(before));
    }
}
