//! Unit tests of the naturalness a guided [`Pgd`](crate::Pgd) reads,
//! `−score(x)` of its guide, for the two guides the workspace uses: an
//! `OpDensityDetector`, whose naturalness is the OP log-density, and
//! `Magnet`, whose naturalness is the negated squared PCA reconstruction
//! error.

#[cfg(test)]
mod tests {
    use opad_data::Dataset;
    use opad_detect::{Detector, Magnet, OpDensityDetector};
    use opad_opmodel::{Density, Gmm, GmmComponent};
    use opad_par::Rng;
    use opad_tensor::Tensor;

    fn unit_gmm() -> Gmm {
        Gmm::from_components(vec![GmmComponent {
            weight: 1.0,
            mean: vec![0.0, 0.0],
            std: 1.0,
        }])
        .unwrap()
    }

    /// The naturalness `guide` gives `x`, as a naturalness bar reads it.
    fn naturalness(guide: &dyn Detector, x: &[f32]) -> f64 {
        -guide.score(x).unwrap()
    }

    /// MagNet keeping `k` principal components of `rows`.
    fn magnet(rows: &Tensor, k: usize) -> Magnet {
        let (n, d) = (rows.dims()[0], rows.dims()[1]);
        let mut m = Magnet::new(d, k).unwrap();
        m.fit(&Dataset::new(rows.clone(), vec![0; n], 1).unwrap())
            .unwrap();
        m
    }

    #[test]
    fn density_naturalness_orders_points() {
        let op = OpDensityDetector::new(unit_gmm());
        assert!(naturalness(&op, &[0.0, 0.0]) > naturalness(&op, &[3.0, 3.0]));
        // ∇ log p at (2, 0) is (−2, 0); the guide's score ascends −log p.
        let g = op.score_gradient(&[2.0, 0.0]).unwrap();
        assert!((g[0] - 2.0).abs() < 1e-5);
        assert!(op.score(&[0.0]).is_err());
    }

    /// Guiding by the OP is a pure re-expression of the density: the
    /// naturalness is the log-density bit for bit, and the score gradient
    /// is its gradient negated bit for bit (IEEE negation is exact).
    #[test]
    fn density_naturalness_is_bitwise_log_density() {
        let gmm = unit_gmm();
        let op = OpDensityDetector::new(gmm.clone());
        for q in [[0.0f32, 0.0], [1.3, -0.4], [3.0, 3.0], [-7.5, 0.01]] {
            let log_p = gmm.log_density(&q).unwrap();
            assert_eq!(
                naturalness(&op, &q).to_bits(),
                log_p.to_bits(),
                "naturalness at {q:?}"
            );
            let grad = op.score_gradient(&q).unwrap();
            for (g, d) in grad.iter().zip(gmm.grad_log_density(&q).unwrap()) {
                assert_eq!(g.to_bits(), (-d).to_bits(), "gradient at {q:?}");
            }
        }
    }

    /// Data on a line in 2-D: MagNet with one component reconstructs
    /// on-line points exactly, so they are natural, and off-line points
    /// are not.
    #[test]
    fn pca_detects_off_manifold_points() {
        let rows: Vec<f32> = (0..50)
            .flat_map(|i| {
                let t = i as f32 / 10.0 - 2.5;
                [t, 2.0 * t]
            })
            .collect();
        let m = magnet(&Tensor::from_vec(rows, &[50, 2]).unwrap(), 1);
        let on = naturalness(&m, &[1.0, 2.0]);
        let off = naturalness(&m, &[2.0, -1.0]);
        assert!(on > -1e-6, "on-manifold naturalness {on}");
        assert!(off < -1.0, "off-manifold naturalness {off}");
    }

    #[test]
    fn pca_validation() {
        assert!(Magnet::new(3, 0).is_err());
        assert!(Magnet::new(3, 4).is_err());
        // One reference row, or constant rows, leave no manifold to score
        // against.
        let one = magnet(&Tensor::zeros(&[1, 3]), 1);
        assert!(one.score(&[0.0; 3]).is_err());
        let flat = magnet(&Tensor::zeros(&[10, 3]), 2);
        assert!(flat.score(&[0.0; 3]).is_err());
        let mut rng = Rng::seed_from_u64(0);
        let m = magnet(&Tensor::rand_normal(&[10, 3], 0.0, 1.0, &mut rng), 2);
        assert!(m.score(&[0.0]).is_err());
        assert!(m.score_gradient(&[0.0]).is_err());
    }

    #[test]
    fn pca_gradient_matches_finite_difference() {
        let mut rng = Rng::seed_from_u64(1);
        let m = magnet(&Tensor::rand_normal(&[60, 4], 0.0, 1.0, &mut rng), 2);
        let x = [0.3f32, -0.7, 1.1, 0.2];
        let analytic = m.score_gradient(&x).unwrap();
        let h = 1e-3f32;
        for j in 0..4 {
            let mut xp = x;
            xp[j] += h;
            let mut xm = x;
            xm[j] -= h;
            let num = ((m.score(&xp).unwrap() - m.score(&xm).unwrap()) / (2.0 * h as f64)) as f32;
            assert!(
                (num - analytic[j]).abs() < 1e-2,
                "dim {j}: {num} vs {}",
                analytic[j]
            );
        }
    }

    /// With every component kept, the score's gradient is
    /// `2(I − VᵀV)(x − μ)`, where the rows of `V` are the principal axes.
    /// It vanishes at three independent points only if `VᵀV = I`, that
    /// is, only if the axes are orthonormal.
    #[test]
    fn pca_components_are_orthonormal() {
        let mut rng = Rng::seed_from_u64(2);
        // Anisotropic data so eigenvalues are distinct.
        let base = Tensor::rand_normal(&[200, 3], 0.0, 1.0, &mut rng);
        let scale = Tensor::from_vec(vec![3.0, 1.0, 0.3], &[3]).unwrap();
        let m = magnet(&base.checked_mul(&scale).unwrap(), 3);
        for x in [[5.0f32, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 5.0]] {
            let g = m.score_gradient(&x).unwrap();
            let norm = g.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!(norm < 1e-3, "‖∇‖ = {norm} at {x:?}");
        }
    }
}
