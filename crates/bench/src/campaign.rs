//! Attack campaigns: run one test-generation method over a seed budget
//! and score what it found on the operational yardsticks.

use opad_attack::{Attack, Fgsm, NormBall, Pgd, RandomFuzz};
use opad_core::{classify_outcome, AeCorpus, SeedSampler, SeedWeighting};
use opad_data::Dataset;
use opad_detect::OpDensityDetector;
use opad_nn::Network;
use opad_opmodel::{CentroidPartition, Density, Gmm, Partition};
use opad_par::Rng;

/// A test-generation method under comparison (seed policy + attack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Uniform seeds, random perturbations (fully black-box baseline).
    UniformRandom,
    /// Uniform seeds, FGSM.
    UniformFgsm,
    /// Uniform seeds, PGD — the state-of-the-art debug-testing baseline.
    UniformPgd,
    /// OP×margin-weighted seeds, PGD — operational seeding without
    /// naturalness guidance.
    OpPgd,
    /// The paper's method: OP×margin seeds + naturalness-guided PGD.
    Opad,
}

impl Method {
    /// All methods, in presentation order.
    pub fn all() -> [Method; 5] {
        [
            Method::UniformRandom,
            Method::UniformFgsm,
            Method::UniformPgd,
            Method::OpPgd,
            Method::Opad,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::UniformRandom => "uniform+random",
            Method::UniformFgsm => "uniform+fgsm",
            Method::UniformPgd => "uniform+pgd",
            Method::OpPgd => "op-seeds+pgd",
            Method::Opad => "opad",
        }
    }

    /// The seed weighting this method uses.
    pub fn weighting(&self) -> SeedWeighting {
        match self {
            Method::UniformRandom | Method::UniformFgsm | Method::UniformPgd => {
                SeedWeighting::Uniform
            }
            Method::OpPgd | Method::Opad => SeedWeighting::OpTimesMargin,
        }
    }
}

/// Outcome of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Method display name.
    pub method: String,
    /// Seeds attacked.
    pub seeds: usize,
    /// AEs found.
    pub aes: usize,
    /// Distinct OP cells containing AEs.
    pub cells: usize,
    /// Total OP mass of those cells (the paper's effectiveness metric).
    pub op_mass: f64,
    /// Mean log-density of AEs under the *ground-truth* OP.
    pub mean_truth_log_density: f64,
    /// AEs whose ground-truth log-density clears `params.tau` — the
    /// *operational* AEs in the paper's sense.
    pub operational_aes: usize,
    /// Σ exp(truth log-density) over found AEs: the total operational
    /// encounter-rate weight of the discovered failures.
    pub sum_truth_density: f64,
    /// Model queries spent.
    pub queries: usize,
    /// The corpus itself (for downstream retraining experiments).
    pub corpus: AeCorpus,
}

/// Shared attack hyperparameters for a campaign sweep.
#[derive(Debug, Clone, Copy)]
pub struct CampaignParams {
    /// Perturbation radius (L∞).
    pub epsilon: f32,
    /// Attack iterations.
    pub steps: usize,
    /// Attack step size.
    pub step_size: f32,
    /// Naturalness weight λ for the opad method.
    pub lambda: f32,
    /// Ground-truth log-density bar above which an AE counts as
    /// *operational* (set from a field-density percentile).
    pub tau: f64,
}

impl Default for CampaignParams {
    fn default() -> Self {
        CampaignParams {
            epsilon: 0.3,
            steps: 15,
            step_size: 0.06,
            lambda: 1.5,
            tau: f64::NEG_INFINITY,
        }
    }
}

/// The `frac`-quantile of ground-truth log-density over a dataset — the
/// usual way to set [`CampaignParams::tau`] ("at least as plausible as the
/// bottom decile of real traffic" for `frac = 0.1`).
///
/// # Panics
///
/// Panics on dimension mismatch (experiment data is known-valid).
pub fn density_percentile(truth: &Gmm, data: &Dataset, frac: f64) -> f64 {
    let d = data.feature_dim();
    let mut densities: Vec<f64> = (0..data.len())
        .map(|i| {
            truth
                .log_density(&data.features().as_slice()[i * d..(i + 1) * d])
                .unwrap()
        })
        .collect();
    densities.sort_by(|a, b| a.partial_cmp(b).expect("finite densities"));
    let idx = ((data.len() as f64 * frac) as usize).min(data.len() - 1);
    densities[idx]
}

/// Runs `method` with `budget` seeds on the field data and scores the
/// result. The opad method's guide is the *learned* OP
/// (`learned_density`); scoring uses the *ground truth* (`truth`).
///
/// # Panics
///
/// Panics on internal errors (experiment configurations are known-valid).
#[allow(clippy::too_many_arguments)]
pub fn attack_campaign(
    method: Method,
    net: &mut Network,
    field: &Dataset,
    balanced_pool: &Dataset,
    learned_density: &Gmm,
    truth: &Gmm,
    partition: &CentroidPartition,
    budget: usize,
    params: CampaignParams,
    rng: &mut Rng,
) -> CampaignResult {
    let ball = NormBall::linf(params.epsilon).unwrap();
    let guide = OpDensityDetector::new(learned_density.clone());
    // OP-ignorant baselines follow standard practice: attack the balanced
    // held-out test set. Operational methods seed from field data.
    let pool = match method {
        Method::UniformRandom | Method::UniformFgsm | Method::UniformPgd => balanced_pool,
        Method::OpPgd | Method::Opad => field,
    };
    let sampler = SeedSampler::new(method.weighting());
    let weights = sampler.weights(net, pool, Some(learned_density)).unwrap();
    let budget = budget.min(pool.len());
    let seeds = sampler.sample(&weights, budget, rng).unwrap();

    let attack: Box<dyn Attack> = match method {
        Method::UniformRandom => Box::new(RandomFuzz::new(ball, params.steps * 2).unwrap()),
        Method::UniformFgsm => Box::new(Fgsm::new(params.epsilon).unwrap()),
        Method::UniformPgd | Method::OpPgd => {
            Box::new(Pgd::new(ball, params.steps, params.step_size).unwrap())
        }
        Method::Opad => Box::new(
            Pgd::new(ball, params.steps, params.step_size)
                .expect("nonzero steps")
                .with_random_start(false)
                .with_restarts(2)
                .guided_by(&guide, params.lambda)
                .expect("finite weight"),
        ),
    };

    let mut corpus = AeCorpus::new();
    let mut queries = 0usize;
    for &i in &seeds {
        let (seed, label) = pool.sample(i).unwrap();
        let out = attack.run(net, &seed, label, rng).unwrap();
        queries += out.queries;
        if let Some(ae) =
            classify_outcome(i, &seed, label, &out, learned_density, partition).unwrap()
        {
            corpus.push(ae);
        }
    }
    // Score naturalness under the ground truth, not the learned model.
    let truth_lds: Vec<f64> = corpus
        .aes()
        .iter()
        .map(|ae| truth.log_density(ae.candidate.as_slice()).unwrap())
        .collect();
    let mean_truth_log_density = if truth_lds.is_empty() {
        f64::NEG_INFINITY
    } else {
        truth_lds.iter().sum::<f64>() / truth_lds.len() as f64
    };
    let operational_aes = truth_lds.iter().filter(|&&l| l >= params.tau).count();
    let sum_truth_density: f64 = truth_lds.iter().map(|l| l.exp()).sum();
    let cell_op = partition.cell_distribution(field.features(), 0.5).unwrap();
    CampaignResult {
        method: method.name().to_string(),
        seeds: budget,
        aes: corpus.len(),
        cells: corpus.distinct_cells().len(),
        op_mass: corpus.op_mass_detected(&cell_op).unwrap(),
        mean_truth_log_density,
        operational_aes,
        sum_truth_density,
        queries,
        corpus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{build_cluster_world, ClusterWorldConfig};

    #[test]
    fn methods_have_distinct_names_and_expected_weightings() {
        let names: std::collections::HashSet<_> = Method::all().iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 5);
        assert_eq!(Method::UniformPgd.weighting(), SeedWeighting::Uniform);
        assert_eq!(Method::Opad.weighting(), SeedWeighting::OpTimesMargin);
    }

    #[test]
    fn campaign_runs_for_every_method() {
        let cfg = ClusterWorldConfig {
            n_train: 150,
            n_field: 200,
            epochs: 10,
            cells: 6,
            ..Default::default()
        };
        let mut w = build_cluster_world(&cfg);
        let mut rng = Rng::seed_from_u64(0);
        for method in Method::all() {
            let r = attack_campaign(
                method,
                &mut w.net,
                &w.field,
                &w.test,
                w.op.density(),
                &w.truth,
                &w.partition,
                12,
                CampaignParams::default(),
                &mut rng,
            );
            assert_eq!(r.seeds, 12);
            assert!(r.queries > 0);
            assert!((0.0..=1.0).contains(&r.op_mass));
            assert!(r.aes >= r.cells.min(r.aes));
            assert_eq!(r.corpus.len(), r.aes);
        }
    }
}
