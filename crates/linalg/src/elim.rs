//! Gaussian elimination: linear solves.

use crate::matrix::Matrix;

/// Reduce `m` to reduced row echelon form in place, returning the pivot
/// column of each pivot row (in row order). Entries below `tol` in absolute
/// value are treated as zero.
fn rref(m: &mut Matrix, tol: f64) -> Vec<usize> {
    let (rows, cols) = (m.rows(), m.cols());
    let mut pivots = Vec::new();
    let mut r = 0;
    for c in 0..cols {
        if r == rows {
            break;
        }
        // Partial pivoting: largest |entry| in column c at rows >= r.
        let (mut best_row, mut best_val) = (r, m[(r, c)].abs());
        for i in r + 1..rows {
            let v = m[(i, c)].abs();
            if v > best_val {
                best_row = i;
                best_val = v;
            }
        }
        if best_val <= tol {
            continue;
        }
        if best_row != r {
            let (a, b) = m.two_rows_mut(r, best_row);
            a.swap_with_slice(b);
        }
        let piv = m[(r, c)];
        for j in 0..cols {
            m[(r, j)] /= piv;
        }
        m[(r, c)] = 1.0; // exact
        for i in 0..rows {
            if i == r {
                continue;
            }
            let factor = m[(i, c)];
            if factor.abs() <= tol {
                continue;
            }
            let (target, pivot_row) = m.two_rows_mut(i, r);
            for (t, p) in target.iter_mut().zip(pivot_row.iter()) {
                *t -= factor * p;
            }
            m[(i, c)] = 0.0; // exact
        }
        pivots.push(c);
        r += 1;
    }
    pivots
}

/// Solve `A x = b` for square, nonsingular `A`. Returns `None` when `A` is
/// singular at tolerance `tol`.
pub fn solve(a: &Matrix, b: &[f64], tol: f64) -> Option<Vec<f64>> {
    assert_eq!(a.rows(), a.cols(), "solve requires a square matrix");
    assert_eq!(a.rows(), b.len(), "rhs length mismatch");
    let n = a.rows();
    // Augment [A | b] and reduce.
    let mut aug = Matrix::zeros(n, n + 1);
    for i in 0..n {
        aug.row_mut(i)[..n].copy_from_slice(a.row(i));
        aug[(i, n)] = b[i];
    }
    let pivots = rref(&mut aug, tol);
    // A pivot in the rhs column means the system is inconsistent; fewer
    // than n structural pivots means A is singular.
    if pivots.contains(&n) || pivots.len() < n {
        return None;
    }
    let mut x = vec![0.0; n];
    for (row, &col) in pivots.iter().enumerate() {
        x[col] = aug[(row, n)];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn rref_of_identity_is_identity() {
        let mut m = Matrix::identity(3);
        let p = rref(&mut m, EPS);
        assert_eq!(p, vec![0, 1, 2]);
        assert_eq!(m, Matrix::identity(3));
    }

    #[test]
    fn solve_simple_system() {
        // x + y = 3, x - y = 1  =>  x = 2, y = 1
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]);
        let x = solve(&a, &[3.0, 1.0], EPS).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn solve_returns_none_for_singular() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        assert!(solve(&a, &[1.0, 2.0], EPS).is_none());
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[5.0, 7.0], EPS).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-10);
        assert!((x[1] - 5.0).abs() < 1e-10);
    }

    #[test]
    fn residual_is_small_on_random_systems() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..20 {
            let n = rng.gen_range(1..8);
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = rng.gen_range(-5.0..5.0);
                }
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            if let Some(x) = solve(&a, &b, EPS) {
                let r = a.matvec(&x);
                for (ri, bi) in r.iter().zip(&b) {
                    assert!((ri - bi).abs() < 1e-6, "residual too large");
                }
            }
        }
    }
}
