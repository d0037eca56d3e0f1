//! Property tests for the tiled task-graph runtime: for any dimension,
//! tile size, Looking order, precision, and worker count,
//!
//! * the parallel DAG execution must be **bitwise identical** to the
//!   sequential replay of the same graph (determinism is a scheduling
//!   invariant, not a tolerance), and
//! * both must stay within 4 ulp of the unblocked reference
//!   factorization column-by-column (the tile microkernels share the
//!   reference's reciprocal-multiply pivot scaling, so in practice the
//!   distance is 0 — the bound leaves room for future kernel swaps),
//! * a planted non-SPD pivot must surface the same *global* failing
//!   column from every execution mode, even when tiles factor out of
//!   order across workers.

use ibcf_core::spd::{random_spd, SpdKind};
use ibcf_core::{
    potrf_tiled_seq, potrf_tiled_threads, potrf_unblocked, CholeskyError, Looking, Real,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Monotone map to ordered integers so ulp distance is integer distance.
fn ordered_bits_f32(x: f32) -> i64 {
    let b = x.to_bits();
    if b & 0x8000_0000 != 0 {
        -((b & 0x7fff_ffff) as i64)
    } else {
        b as i64
    }
}

fn ordered_bits_f64(x: f64) -> i128 {
    let b = x.to_bits();
    if b & 0x8000_0000_0000_0000 != 0 {
        -((b & 0x7fff_ffff_ffff_ffff) as i128)
    } else {
        b as i128
    }
}

fn ulp_f32(a: f32, b: f32) -> u64 {
    (ordered_bits_f32(a) - ordered_bits_f32(b)).unsigned_abs()
}

fn ulp_f64(a: f64, b: f64) -> u128 {
    (ordered_bits_f64(a) - ordered_bits_f64(b)).unsigned_abs()
}

fn looking_of(pick: usize) -> Looking {
    Looking::ALL[pick % 3]
}

/// (n, nb pick, looking pick, threads, seed). `n` deliberately crosses
/// tile boundaries: exact multiples of nb and ragged tails both occur.
fn params() -> impl Strategy<Value = (usize, usize, usize, usize, u64)> {
    (
        64usize..=192,
        0usize..3,
        0usize..3,
        2usize..=4,
        any::<u64>(),
    )
}

fn nb_of(pick: usize) -> usize {
    [8, 16, 32][pick % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// f32: parallel ≡ sequential replay bitwise, both ≤ 4 ulp of the
    /// unblocked oracle.
    #[test]
    fn tiled_parallel_matches_seq_bitwise_and_oracle_f32(
        (n, nbp, lkp, threads, seed) in params()
    ) {
        let (nb, looking) = (nb_of(nbp), looking_of(lkp));
        let mut rng = StdRng::seed_from_u64(seed);
        let a0 = random_spd::<f32>(n, SpdKind::Wishart, &mut rng).into_vec();

        let mut oracle = a0.clone();
        potrf_unblocked(n, &mut oracle, n).expect("oracle must factor SPD input");
        let mut seq = a0.clone();
        potrf_tiled_seq(n, &mut seq, n, nb, looking).expect("seq tiled must factor");
        let mut par = a0.clone();
        potrf_tiled_threads(n, &mut par, n, nb, looking, threads)
            .expect("parallel tiled must factor");

        prop_assert!(
            par.iter().zip(&seq).all(|(x, y)| x.to_bits() == y.to_bits()),
            "parallel DAG must replay the sequential schedule bitwise \
             (n={n} nb={nb} {looking:?} threads={threads})"
        );
        // Only the lower triangle is the factor; the strict upper stays
        // input on both sides, so compare everything.
        for (i, (&t, &o)) in seq.iter().zip(&oracle).enumerate() {
            prop_assert!(
                ulp_f32(t, o) <= 4,
                "tiled[{i}]={t} vs oracle {o}: > 4 ulp (n={n} nb={nb} {looking:?})"
            );
        }
    }

    /// f64 twin of the above.
    #[test]
    fn tiled_parallel_matches_seq_bitwise_and_oracle_f64(
        (n, nbp, lkp, threads, seed) in params()
    ) {
        let (nb, looking) = (nb_of(nbp), looking_of(lkp));
        let mut rng = StdRng::seed_from_u64(seed);
        let a0 = random_spd::<f64>(n, SpdKind::Wishart, &mut rng).into_vec();

        let mut oracle = a0.clone();
        potrf_unblocked(n, &mut oracle, n).expect("oracle must factor SPD input");
        let mut seq = a0.clone();
        potrf_tiled_seq(n, &mut seq, n, nb, looking).expect("seq tiled must factor");
        let mut par = a0.clone();
        potrf_tiled_threads(n, &mut par, n, nb, looking, threads)
            .expect("parallel tiled must factor");

        prop_assert!(
            par.iter().zip(&seq).all(|(x, y)| x.to_bits() == y.to_bits()),
            "parallel DAG must replay the sequential schedule bitwise \
             (n={n} nb={nb} {looking:?} threads={threads})"
        );
        for (i, (&t, &o)) in seq.iter().zip(&oracle).enumerate() {
            prop_assert!(
                ulp_f64(t, o) <= 4,
                "tiled[{i}]={t} vs oracle {o}: > 4 ulp (n={n} nb={nb} {looking:?})"
            );
        }
    }

    /// A pivot poisoned at an arbitrary global column must fail with
    /// exactly that column from the oracle, the sequential DAG, and the
    /// parallel DAG — the total order on Potrf tasks makes the failure
    /// deterministic even under work stealing.
    #[test]
    fn planted_non_spd_reports_the_same_global_column_everywhere(
        (n, nbp, lkp, threads, seed) in params(),
        colp in 0usize..4096
    ) {
        let (nb, looking) = (nb_of(nbp), looking_of(lkp));
        let col = colp % n;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a0 = random_spd::<f64>(n, SpdKind::Wishart, &mut rng).into_vec();
        // Sink the diagonal entry far below anything elimination can
        // recover: the pivot at `col` must come out non-positive.
        a0[col * n + col] = -1e6;

        let mut oracle = a0.clone();
        let want = potrf_unblocked(n, &mut oracle, n).expect_err("poisoned pivot must fail");
        let CholeskyError::NotPositiveDefinite { column } = want else {
            panic!("expected NotPositiveDefinite, got {want:?}");
        };
        prop_assert!(column <= col, "failure can only surface at or before the poison");

        let mut seq = a0.clone();
        let got_seq = potrf_tiled_seq(n, &mut seq, n, nb, looking).expect_err("seq must fail");
        prop_assert_eq!(
            got_seq,
            CholeskyError::NotPositiveDefinite { column },
            "sequential DAG disagrees with the oracle on the failing column"
        );

        let mut par = a0;
        let got_par = potrf_tiled_threads(n, &mut par, n, nb, looking, threads)
            .expect_err("parallel must fail");
        prop_assert_eq!(
            got_par,
            CholeskyError::NotPositiveDefinite { column },
            "parallel DAG disagrees with the oracle on the failing column"
        );
    }
}

/// The served tile edge (nb = 32) on full tiles: one deterministic
/// n = 512 case per precision (proptest's case count would take minutes
/// at this size in debug builds). Every executor must reproduce the
/// unblocked oracle **bitwise** — perfbench's large-factor check compares
/// against `potrf_tiled_seq` of the same build, so only this test sees a
/// leaf that drifts from the oracle.
fn assert_n512_matches_oracle_bitwise<T: Real>(seed: u64) {
    let n = 512;
    let mut rng = StdRng::seed_from_u64(seed);
    let a0 = random_spd::<T>(n, SpdKind::Wishart, &mut rng).into_vec();
    let mut oracle = a0.clone();
    potrf_unblocked(n, &mut oracle, n).unwrap();
    let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
    let want = bits(&oracle);
    for looking in Looking::ALL {
        let mut seq = a0.clone();
        potrf_tiled_seq(n, &mut seq, n, 32, looking).unwrap();
        assert!(
            bits(&seq) == want,
            "n=512 {looking:?}: sequential != oracle bitwise"
        );
        let mut par = a0.clone();
        potrf_tiled_threads(n, &mut par, n, 32, looking, 4).unwrap();
        assert!(
            bits(&par) == want,
            "n=512 {looking:?}: parallel != oracle bitwise"
        );
    }
}

#[test]
fn tiled_matches_oracle_at_n512() {
    assert_n512_matches_oracle_bitwise::<f32>(0xD1A6);
}

#[test]
fn tiled_matches_oracle_at_n512_f64() {
    assert_n512_matches_oracle_bitwise::<f64>(0xD1A7);
}
