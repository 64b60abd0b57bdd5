//! Top-`k` eigenpairs of symmetric matrices by block power iteration
//! (simultaneous/orthogonal iteration).
//!
//! The dense tridiagonal-QL solver ([`crate::SymmetricEigen`]) computes
//! *all* eigenpairs in `O(n³)` — fine for covariance matrices (`n = d`) and
//! for affinities up to several hundred objects, wasteful beyond that for
//! spectral clustering, whose `n × n` affinity only needs its top `k ≪ n`
//! eigenvectors. Orthogonal iteration multiplies a random `n × k` block by
//! the matrix and re-orthonormalises until the invariant subspace
//! converges: `O(k·n²)` per iteration, which overtakes the dense solver
//! once `n` reaches the high hundreds.
//!
//! For matrices with eigenvalues of mixed sign, pass a `shift` making the
//! target eigenvalues the largest in magnitude (spectral methods use the
//! normalised affinity, whose spectrum lies in `[-1, 1]` with the relevant
//! eigenvalues near `+1`, so `shift = 1` is the usual choice).

use rand::rngs::StdRng;
use rand::Rng;

use crate::vector::{dot, normalize};
use crate::Matrix;

/// Result of a top-`k` symmetric eigen computation.
#[derive(Clone, Debug)]
pub struct TopEigen {
    /// The `k` dominant eigenvalues of the (unshifted) matrix, sorted by
    /// descending eigenvalue.
    pub values: Vec<f64>,
    /// Column `j` is the eigenvector for `values[j]` (`n × k`).
    pub vectors: Matrix,
    /// Iterations performed.
    pub iterations: usize,
}

/// Computes the `k` eigenpairs of symmetric `a` that are largest after
/// adding `shift` to every eigenvalue (i.e. dominant eigenpairs of
/// `A + shift·I`); the reported eigenvalues are for `A` itself.
///
/// # Panics
/// Panics if `a` is not square or `k` exceeds its size.
pub fn top_eigenpairs(
    a: &Matrix,
    k: usize,
    shift: f64,
    tol: f64,
    max_iter: usize,
    rng: &mut StdRng,
) -> TopEigen {
    assert!(a.is_square(), "top_eigenpairs requires a square matrix");
    let n = a.rows();
    assert!(k >= 1 && k <= n, "1 ≤ k ≤ n required");

    // Random start block, orthonormalised.
    let mut block: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..n).map(|_| rng.gen::<f64>() - 0.5).collect())
        .collect();
    orthonormalize(&mut block);

    let _span = multiclust_telemetry::span("power.top_eigenpairs");
    let mut iterations = 0;
    let mut prev_rayleigh = vec![f64::INFINITY; k];
    for it in 0..max_iter {
        iterations = it + 1;
        // block ← (A + shift·I) · block, all columns in one row-parallel
        // pass (row i of every product column needs only a.row(i)).
        block = block_multiply(a, &block, shift);
        orthonormalize(&mut block);
        // Convergence: Rayleigh quotients stabilise. One more row-parallel
        // block multiply gives all k matvecs at once.
        let products = block_multiply(a, &block, 0.0);
        let rayleigh: Vec<f64> =
            block.iter().zip(&products).map(|(v, av)| dot(v, av)).collect();
        let moved = rayleigh
            .iter()
            .zip(&prev_rayleigh)
            .map(|(r, p)| (r - p).abs())
            .fold(0.0f64, f64::max);
        prev_rayleigh = rayleigh;
        // Convergence trace: the residual is the largest Rayleigh-quotient
        // movement this sweep (what the stopping rule tests).
        if multiclust_telemetry::enabled() {
            multiclust_telemetry::event(
                "power.iter",
                &[("iter", it as f64), ("residual", moved)],
            );
        }
        if moved <= tol {
            break;
        }
    }
    multiclust_telemetry::counter_add("power.iterations", iterations as u64);
    multiclust_telemetry::event(
        "power.done",
        &[("iterations", iterations as f64), ("budget", max_iter as f64)],
    );

    // Sort by descending Rayleigh quotient (eigenvalue of A).
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&i, &j| prev_rayleigh[j].partial_cmp(&prev_rayleigh[i]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| prev_rayleigh[i]).collect();
    let vectors = Matrix::from_fn(n, k, |r, c| block[order[c]][r]);
    TopEigen { values, vectors, iterations }
}

/// One block multiply `(A + shift·I) · block`, row-parallel.
///
/// Row `i` of every product column depends only on `a.row(i)` and the old
/// block, so rows split across threads with bit-identical results to the
/// serial pass at any thread count.
fn block_multiply(a: &Matrix, block: &[Vec<f64>], shift: f64) -> Vec<Vec<f64>> {
    let n = a.rows();
    let k = block.len();
    let min_chunk = (1usize << 14).div_ceil(n.saturating_mul(k).max(1)).max(1);
    let rows: Vec<Vec<f64>> = multiclust_parallel::par_map_indexed(n, min_chunk, |i| {
        let a_row = a.row(i);
        block
            .iter()
            .map(|col| {
                let mut s: f64 = a_row.iter().zip(col.iter()).map(|(x, y)| x * y).sum();
                if shift != 0.0 {
                    s += shift * col[i];
                }
                s
            })
            .collect()
    });
    (0..k).map(|c| rows.iter().map(|r| r[c]).collect()).collect()
}

/// Modified Gram–Schmidt over a set of length-`n` vectors; degenerate
/// vectors are re-randomised deterministically from their index.
fn orthonormalize(block: &mut [Vec<f64>]) {
    for i in 0..block.len() {
        for j in 0..i {
            let proj = dot(&block[i], &block[j]);
            let (head, tail) = block.split_at_mut(i);
            for (x, &y) in tail[0].iter_mut().zip(&head[j]) {
                *x -= proj * y;
            }
        }
        if !normalize(&mut block[i]) {
            // Degenerate direction: replace with a deterministic basis-ish
            // vector and redo the projections.
            let n = block[i].len();
            for (t, x) in block[i].iter_mut().enumerate() {
                *x = if t % (i + 2) == 0 { 1.0 } else { -0.5 };
            }
            for j in 0..i {
                let proj = dot(&block[i], &block[j]);
                let (head, tail) = block.split_at_mut(i);
                for (x, &y) in tail[0].iter_mut().zip(&head[j]) {
                    *x -= proj * y;
                }
            }
            let _ = normalize(&mut block[i]);
            let _ = n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymmetricEigen;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut r = StdRng::seed_from_u64(seed);
        let mut a = Matrix::from_fn(n, n, |_, _| r.gen::<f64>() - 0.5);
        a.symmetrize();
        a
    }

    #[test]
    fn matches_jacobi_on_dominant_pairs() {
        let a = random_symmetric(30, 11);
        let full = SymmetricEigen::new(&a);
        // Shift so the algebraically largest eigenvalues dominate in
        // magnitude.
        let shift = a.frobenius_norm();
        let top = top_eigenpairs(&a, 3, shift, 1e-12, 2000, &mut rng());
        for i in 0..3 {
            assert!(
                (top.values[i] - full.values[i]).abs() < 1e-6,
                "eigenvalue {i}: {} vs {}",
                top.values[i],
                full.values[i]
            );
            // Eigenvectors match up to sign.
            let t = top.vectors.col(i);
            let f = full.eigenvector(i);
            assert!(dot(&t, &f).abs() > 1.0 - 1e-6, "eigenvector {i} alignment");
        }
    }

    #[test]
    fn vectors_are_orthonormal() {
        let a = random_symmetric(25, 12);
        let top = top_eigenpairs(&a, 4, a.frobenius_norm(), 1e-10, 1000, &mut rng());
        for i in 0..4 {
            for j in 0..4 {
                let d = dot(&top.vectors.col(i), &top.vectors.col(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-8, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn diagonal_matrix_converges_fast() {
        let a = Matrix::from_diag(&[5.0, 4.0, 1.0, 0.5]);
        let top = top_eigenpairs(&a, 2, 0.0, 1e-12, 500, &mut rng());
        assert!((top.values[0] - 5.0).abs() < 1e-8);
        assert!((top.values[1] - 4.0).abs() < 1e-8);
        assert!(top.iterations < 400);
    }

    #[test]
    fn k_equals_n_recovers_everything() {
        let a = random_symmetric(6, 13);
        let full = SymmetricEigen::new(&a);
        let top = top_eigenpairs(&a, 6, a.frobenius_norm(), 1e-12, 4000, &mut rng());
        for i in 0..6 {
            assert!((top.values[i] - full.values[i]).abs() < 1e-5, "pair {i}");
        }
    }
}
