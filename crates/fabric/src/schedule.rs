//! Collective schedules: who sends to whom in each round of the four
//! collectives the simulator runs. Both collective tiers take their
//! schedule from here — the event-level driver (`bband-mpi`, every packet
//! through the full stack) and the flow-level one (`bband-cluster`,
//! thousands of ranks) — and attach only their own message sizes.
//!
//! * **barrier** — dissemination: ⌈log₂n⌉ rounds; in round *r* rank *i*
//!   sends to *(i + 2^r) mod n* and receives from *(i − 2^r) mod n*.
//! * **bcast** — binomial tree from any root: ⌈log₂n⌉ rounds; in round
//!   *r* each rank whose root-relative rank *v* is below 2^r sends to
//!   *v + 2^r*, if that rank exists.
//! * **allreduce, recursive doubling** — pairwise exchange with
//!   *v ⊕ 2^r*, made to fit any n by the MPICH fold. With `n = pow + rem`
//!   (`pow` the largest power of two ≤ n), a fold-in round has each odd
//!   rank below `2·rem` hand its contribution to its even neighbour, the
//!   `pow` survivors run log₂(pow) exchange rounds, and a fold-out round
//!   returns the result to the ranks that sat out: ⌊log₂n⌋ rounds, plus
//!   two when n is not a power of two.
//! * **allreduce, ring** — `2(n − 1)` rounds in which every rank sends one
//!   chunk to its successor: `n − 1` reduce-scatter steps, then `n − 1`
//!   allgather steps.
//!
//! The tests prove each schedule by pushing per-rank contribution bitsets
//! through it.

/// A collective's communication pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Dissemination barrier.
    Barrier,
    /// Binomial-tree broadcast from `root`.
    Bcast { root: u32 },
    /// Recursive-doubling allreduce with the MPICH fold.
    AllreduceRd,
    /// Ring allreduce: reduce-scatter, then allgather.
    AllreduceRing,
}

/// One rank's part in one round: at most one send and one receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The rank this rank sends to, if it sends this round.
    pub send_to: Option<u32>,
    /// Whether this rank receives a message this round.
    pub recv: bool,
}

impl Pattern {
    /// Rounds the pattern takes over `n ≥ 2` ranks.
    #[inline]
    pub fn rounds(self, n: u32) -> u32 {
        match self {
            Pattern::Barrier | Pattern::Bcast { .. } => n.next_power_of_two().trailing_zeros(),
            Pattern::AllreduceRd => n.ilog2() + 2 * u32::from(!n.is_power_of_two()),
            Pattern::AllreduceRing => 2 * (n - 1),
        }
    }

    /// What `rank` does in round `r < self.rounds(n)` over `n` ranks.
    #[inline]
    pub fn step(self, n: u32, r: u32, rank: u32) -> Step {
        let (send_to, recv) = match self {
            Pattern::Barrier => (Some(wrap(rank + (1 << r), n)), true),
            Pattern::Bcast { root } => {
                let (v, dist) = (wrap(rank + n - root, n), 1 << r);
                let to = (v < dist && v + dist < n).then(|| wrap(v + dist + root, n));
                (to, v >= dist && v < 2 * dist)
            }
            Pattern::AllreduceRd => rd_step(n, r, rank),
            Pattern::AllreduceRing => (Some(wrap(rank + 1, n)), true),
        };
        Step { send_to, recv }
    }
}

/// `x mod n` for `x < 2n`.
#[inline]
fn wrap(x: u32, n: u32) -> u32 {
    x.checked_sub(n).unwrap_or(x)
}

/// Recursive doubling with the MPICH fold (see the module docs): rank
/// `i < 2·rem` is half of the fold pair `(i & !1, i | 1)`, whose even rank
/// stands for it in the core rounds as virtual rank `i / 2`; every rank
/// above the pairs is virtual rank `i − rem`.
#[inline]
fn rd_step(n: u32, r: u32, rank: u32) -> (Option<u32>, bool) {
    let core = n.ilog2();
    let rem = n - (1 << core);
    let fold = u32::from(rem > 0);
    let (paired, odd) = (rank < 2 * rem, rank % 2 == 1);
    if fold == 1 && (r == 0 || r > core) {
        // Fold-in sends odd → even, fold-out even → odd.
        let sends = odd == (r == 0);
        return ((paired && sends).then_some(rank ^ 1), paired && !sends);
    }
    if paired && odd {
        return (None, false);
    }
    let v = if paired { rank / 2 } else { rank - rem };
    let peer = v ^ (1 << (r - fold));
    (Some(if peer < rem { 2 * peer } else { peer + rem }), true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank counts every pattern is proved at.
    fn counts() -> impl Iterator<Item = u32> {
        (2..=64).chain([100, 384, 1000])
    }

    /// A set of ranks (contributions), one bit each.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Bits(Vec<u64>);

    impl Bits {
        fn empty(n: u32) -> Self {
            Bits(vec![0; n.div_ceil(64) as usize])
        }
        fn single(n: u32, i: u32) -> Self {
            let mut b = Bits::empty(n);
            b.0[i as usize / 64] |= 1 << (i % 64);
            b
        }
        fn full(n: u32) -> Self {
            let mut b = Bits::empty(n);
            (0..n).for_each(|i| b.0[i as usize / 64] |= 1 << (i % 64));
            b
        }
        fn is_disjoint(&self, o: &Bits) -> bool {
            self.0.iter().zip(&o.0).all(|(a, b)| a & b == 0)
        }
        fn union(&mut self, o: &Bits) {
            self.0.iter_mut().zip(&o.0).for_each(|(a, b)| *a |= b);
        }
    }

    /// The sends of round `r` as `(src, dst)` pairs, after checking that
    /// they match the receives one to one: every receiving rank has
    /// exactly one sender, every sender's target receives, and no rank
    /// sends to itself.
    fn sends(p: Pattern, n: u32, r: u32) -> Vec<(u32, u32)> {
        let steps: Vec<Step> = (0..n).map(|i| p.step(n, r, i)).collect();
        let mut senders = vec![0u32; n as usize];
        let sends: Vec<(u32, u32)> = (0..n)
            .filter_map(|i| Some((i, steps[i as usize].send_to?)))
            .collect();
        for &(src, dst) in &sends {
            assert!(dst < n && dst != src, "{p:?} n={n} r={r}: {src} -> {dst}");
            senders[dst as usize] += 1;
        }
        for (i, s) in steps.iter().enumerate() {
            assert_eq!(
                senders[i],
                u32::from(s.recv),
                "{p:?} n={n} r={r}: rank {i} receives {} and has {} senders",
                s.recv,
                senders[i]
            );
        }
        sends
    }

    #[test]
    fn barrier_lets_every_rank_hear_from_every_rank() {
        for n in counts() {
            let p = Pattern::Barrier;
            let mut heard: Vec<Bits> = (0..n).map(|i| Bits::single(n, i)).collect();
            for r in 0..p.rounds(n) {
                let before = heard.clone();
                for (src, dst) in sends(p, n, r) {
                    heard[dst as usize].union(&before[src as usize]);
                }
            }
            let full = Bits::full(n);
            assert!(heard.iter().all(|h| *h == full), "barrier n={n}");
        }
    }

    #[test]
    fn bcast_reaches_every_rank_from_any_root() {
        for n in counts() {
            for root in [0, 1, n / 2, n - 1] {
                let p = Pattern::Bcast { root };
                let mut has: Vec<bool> = (0..n).map(|i| i == root).collect();
                for r in 0..p.rounds(n) {
                    let before = has.clone();
                    for (src, dst) in sends(p, n, r) {
                        assert!(before[src as usize], "{p:?} n={n} r={r}: {src} sends early");
                        has[dst as usize] = true;
                    }
                }
                assert!(has.iter().all(|&h| h), "{p:?} n={n}");
            }
        }
    }

    #[test]
    fn recursive_doubling_reduces_every_contribution_exactly_once() {
        for n in counts() {
            let p = Pattern::AllreduceRd;
            let rounds = p.rounds(n);
            let fold_out = (!n.is_power_of_two()).then_some(rounds - 1);
            let full = Bits::full(n);
            let mut acc: Vec<Bits> = (0..n).map(|i| Bits::single(n, i)).collect();
            for r in 0..rounds {
                let before = acc.clone();
                for (src, dst) in sends(p, n, r) {
                    let msg = &before[src as usize];
                    if Some(r) == fold_out {
                        assert_eq!(*msg, full, "n={n}: fold-out sends a partial result");
                        acc[dst as usize] = full.clone();
                    } else {
                        assert!(
                            acc[dst as usize].is_disjoint(msg),
                            "n={n} r={r}: {src} -> {dst} reduces a contribution twice"
                        );
                        acc[dst as usize].union(msg);
                    }
                }
            }
            assert!(acc.iter().all(|a| *a == full), "allreduce-rd n={n}");
        }
    }

    /// Chunk `c` of the vector travels the standard ring: in reduce-scatter
    /// step `s` rank `i` sends its partial sum of chunk `(i − s) mod n`,
    /// which the receiver adds to its own; in allgather step `s` it sends
    /// its complete chunk `(i + 1 − s) mod n`, which the receiver keeps.
    #[test]
    fn ring_reduces_every_chunk_everywhere() {
        for n in counts().filter(|&n| n <= 384) {
            let p = Pattern::AllreduceRing;
            let full = Bits::full(n);
            // acc[i][c]: contributions to chunk `c` that rank `i` holds.
            let mut acc: Vec<Vec<Bits>> = (0..n)
                .map(|i| vec![Bits::single(n, i); n as usize])
                .collect();
            for r in 0..p.rounds(n) {
                let reduce = r < n - 1;
                let s = if reduce { r } else { r - (n - 1) };
                let sent: Vec<(u32, usize, Bits)> = sends(p, n, r)
                    .into_iter()
                    .map(|(src, dst)| {
                        let c = ((src + n + u32::from(!reduce) - s) % n) as usize;
                        (dst, c, acc[src as usize][c].clone())
                    })
                    .collect();
                for (dst, c, msg) in sent {
                    let have = &mut acc[dst as usize][c];
                    if reduce {
                        assert!(have.is_disjoint(&msg), "n={n} r={r}: chunk {c} twice");
                        have.union(&msg);
                    } else {
                        assert_eq!(msg, full, "n={n} r={r}: allgather of partial chunk {c}");
                        *have = msg;
                    }
                }
            }
            assert!(
                acc.iter().flatten().all(|a| *a == full),
                "allreduce-ring n={n}"
            );
        }
    }
}
