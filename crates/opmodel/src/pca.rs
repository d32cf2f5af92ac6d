//! From-scratch principal component analysis (power iteration with
//! deflation).
//!
//! PCA started life inside `opad-attack` as the reconstruction-error
//! naturalness proxy; it moved here so the detector zoo (MagNet-style
//! reconstruction detectors) and the attack-side oracle share one
//! implementation — the arithmetic is unchanged, so scores produced
//! through either face are bit-identical.

use crate::OpModelError;
use opad_tensor::Tensor;

/// A fitted `k`-component PCA: the training mean and `k` orthonormal
/// principal directions, supporting reconstruction error and its analytic
/// gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    mean: Vec<f32>,
    components: Tensor, // [k, d] orthonormal rows
}

impl Pca {
    /// Fits a `k`-component PCA on the rows of `data`.
    ///
    /// # Errors
    ///
    /// Fails when `data` is not a matrix with at least 2 rows, or `k` is
    /// zero or exceeds the dimensionality.
    pub fn fit(data: &Tensor, k: usize) -> Result<Self, OpModelError> {
        if data.rank() != 2 || data.dims()[0] < 2 {
            return Err(OpModelError::CannotFit {
                reason: "PCA needs a [n≥2, d] matrix".into(),
            });
        }
        let (n, d) = (data.dims()[0], data.dims()[1]);
        if k == 0 || k > d {
            return Err(OpModelError::InvalidParameter {
                reason: format!("k must be in 1..={d}, got {k}"),
            });
        }
        // Mean-centre.
        let mean_t = data.mean_axis(0)?;
        let mean: Vec<f32> = mean_t.as_slice().to_vec();
        // Covariance (d×d), fine for the dimensionalities in this toolkit.
        let mut cov = vec![0.0f64; d * d];
        let xs = data.as_slice();
        for i in 0..n {
            let row = &xs[i * d..(i + 1) * d];
            for a in 0..d {
                let va = (row[a] - mean[a]) as f64;
                for b in a..d {
                    let vb = (row[b] - mean[b]) as f64;
                    cov[a * d + b] += va * vb;
                }
            }
        }
        for a in 0..d {
            for b in a..d {
                let v = cov[a * d + b] / (n - 1) as f64;
                cov[a * d + b] = v;
                cov[b * d + a] = v;
            }
        }
        // Power iteration with deflation for the top-k eigenvectors.
        let mut components = Vec::with_capacity(k * d);
        let mut deflated = cov;
        for comp in 0..k {
            // Deterministic start (varies per component to avoid
            // pathological orthogonality).
            let mut v: Vec<f64> = (0..d)
                .map(|j| if j % (comp + 1) == 0 { 1.0 } else { 0.5 })
                .collect();
            normalize(&mut v);
            let mut eigval = 0.0f64;
            for _ in 0..200 {
                let mut w = vec![0.0f64; d];
                for a in 0..d {
                    let mut acc = 0.0;
                    for b in 0..d {
                        acc += deflated[a * d + b] * v[b];
                    }
                    w[a] = acc;
                }
                eigval = norm(&w);
                if eigval < 1e-12 {
                    break; // rank exhausted: keep current direction
                }
                for (vi, wi) in v.iter_mut().zip(&w) {
                    *vi = wi / eigval;
                }
            }
            // Deflate: C ← C − λ v vᵀ.
            for a in 0..d {
                for b in 0..d {
                    deflated[a * d + b] -= eigval * v[a] * v[b];
                }
            }
            components.extend(v.iter().map(|&x| x as f32));
        }
        Ok(Pca {
            mean,
            components: Tensor::from_vec(components, &[k, d])?,
        })
    }

    /// Number of principal components retained.
    pub fn num_components(&self) -> usize {
        self.components.dims()[0]
    }

    /// Dimensionality of the space the PCA was fitted on.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// The training mean.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// The `[k, d]` matrix of orthonormal principal directions.
    pub fn components(&self) -> &Tensor {
        &self.components
    }

    fn check_dim(&self, x: &[f32]) -> Result<(), OpModelError> {
        if x.len() != self.dim() {
            return Err(OpModelError::DimensionMismatch {
                expected: self.dim(),
                actual: x.len(),
            });
        }
        Ok(())
    }

    /// Squared reconstruction error of `x` under the retained subspace.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch.
    pub fn reconstruction_error(&self, x: &[f32]) -> Result<f64, OpModelError> {
        self.check_dim(x)?;
        let d = self.dim();
        let centered: Vec<f64> = x
            .iter()
            .zip(&self.mean)
            .map(|(&a, &m)| (a - m) as f64)
            .collect();
        let k = self.num_components();
        let comps = self.components.as_slice();
        // ‖c‖² − Σ (vᵀc)²  (Pythagoras in the orthonormal basis).
        let total: f64 = centered.iter().map(|v| v * v).sum();
        let mut explained = 0.0f64;
        for c in 0..k {
            let proj: f64 = comps[c * d..(c + 1) * d]
                .iter()
                .zip(&centered)
                .map(|(&v, &x)| v as f64 * x)
                .sum();
            explained += proj * proj;
        }
        Ok((total - explained).max(0.0))
    }

    /// Analytic gradient of the squared reconstruction error
    /// `‖(I − VVᵀ)(x − μ)‖²`: `2 (I − VVᵀ)(x − μ)`.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch.
    pub fn reconstruction_error_gradient(&self, x: &[f32]) -> Result<Vec<f32>, OpModelError> {
        self.check_dim(x)?;
        let d = self.dim();
        let centered: Vec<f64> = x
            .iter()
            .zip(&self.mean)
            .map(|(&a, &m)| (a - m) as f64)
            .collect();
        let k = self.num_components();
        let comps = self.components.as_slice();
        // residual = c − V Vᵀ c
        let mut residual = centered.clone();
        for c in 0..k {
            let row = &comps[c * d..(c + 1) * d];
            let proj: f64 = row.iter().zip(&centered).map(|(&v, &x)| v as f64 * x).sum();
            for (r, &v) in residual.iter_mut().zip(row) {
                *r -= proj * v as f64;
            }
        }
        Ok(residual.into_iter().map(|r| (2.0 * r) as f32).collect())
    }
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn normalize(v: &mut [f64]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic anisotropic cloud (no RNG): points on a noisy line.
    fn line_cloud(n: usize) -> Tensor {
        Tensor::from_fn(&[n, 2], |ix| {
            let t = ix[0] as f32 / 10.0 - 2.5;
            if ix[1] == 0 {
                t
            } else {
                2.0 * t
            }
        })
    }

    #[test]
    fn pca_reconstructs_on_manifold_points() {
        let pca = Pca::fit(&line_cloud(50), 1).unwrap();
        assert_eq!(pca.num_components(), 1);
        assert_eq!(pca.dim(), 2);
        let on = pca.reconstruction_error(&[1.0, 2.0]).unwrap();
        let off = pca.reconstruction_error(&[2.0, -1.0]).unwrap();
        assert!(on < 1e-6, "on-manifold error {on}");
        assert!(off > 1.0, "off-manifold error {off}");
    }

    #[test]
    fn pca_full_rank_reconstructs_everything() {
        let mut rng = opad_par::Rng::seed_from_u64(0);
        let data = Tensor::rand_normal(&[100, 3], 0.0, 1.0, &mut rng);
        let pca = Pca::fit(&data, 3).unwrap();
        assert_eq!(pca.num_components(), 3);
        for i in 0..5 {
            let x = data.row(i).unwrap();
            let err = pca.reconstruction_error(x.as_slice()).unwrap();
            assert!(err < 1e-3, "row {i} error {err}");
        }
    }

    #[test]
    fn pca_validation() {
        let data = Tensor::zeros(&[10, 3]);
        assert!(Pca::fit(&data, 0).is_err());
        assert!(Pca::fit(&data, 4).is_err());
        assert!(Pca::fit(&Tensor::zeros(&[1, 3]), 1).is_err());
        assert!(Pca::fit(&Tensor::zeros(&[5]), 1).is_err());
        let pca = Pca::fit(&data, 2).unwrap();
        assert!(pca.reconstruction_error(&[0.0]).is_err());
        assert!(pca.reconstruction_error_gradient(&[0.0]).is_err());
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let pca = Pca::fit(&line_cloud(60), 1).unwrap();
        let x = [0.3f32, -0.7];
        let analytic = pca.reconstruction_error_gradient(&x).unwrap();
        let h = 1e-3f32;
        for j in 0..2 {
            let mut xp = x;
            xp[j] += h;
            let mut xm = x;
            xm[j] -= h;
            let num = ((pca.reconstruction_error(&xp).unwrap()
                - pca.reconstruction_error(&xm).unwrap())
                / (2.0 * h as f64)) as f32;
            assert!(
                (num - analytic[j]).abs() < 1e-2,
                "dim {j}: {num} vs {}",
                analytic[j]
            );
        }
    }

    #[test]
    fn components_are_orthonormal() {
        // Anisotropic 3-D cloud with distinct eigenvalues, closed form.
        let data = Tensor::from_fn(&[200, 3], |ix| {
            let t = (ix[0] as u64).wrapping_mul(2654435761) % 997;
            let v = t as f32 / 997.0 * 2.0 - 1.0;
            match ix[1] {
                0 => 3.0 * v,
                1 => v + 0.1 * (ix[0] as f32 * 0.37).sin(),
                _ => 0.3 * (ix[0] as f32 * 1.13).cos(),
            }
        });
        let pca = Pca::fit(&data, 3).unwrap();
        let c = pca.components().as_slice();
        for a in 0..3 {
            for b in 0..3 {
                let dot: f32 = (0..3).map(|j| c[a * 3 + j] * c[b * 3 + j]).sum();
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-3, "⟨v{a}, v{b}⟩ = {dot}");
            }
        }
    }
}
