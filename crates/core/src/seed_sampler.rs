//! Weight-based seed sampling (RQ2): pick test seeds that are both likely
//! under the OP and likely to expose failures, following the
//! auxiliary-information weighting idea of Guerriero et al. (ICSE'21).

use crate::PipelineError;
use opad_data::Dataset;
use opad_nn::{prediction_entropy, prediction_margin, Network};
use opad_opmodel::{log_density_batch, Density};
use opad_par::Rng;
use opad_telemetry::JsonValue;

/// The weighting scheme used to score candidate seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedWeighting {
    /// Uniform weights — plain operational testing on the field data.
    Uniform,
    /// Weight by OP density of the seed: test what operation will see.
    OpDensity,
    /// Weight by `1 − margin`: test where the model is least decisive
    /// (auxiliary failure indicator).
    Margin,
    /// Weight by softmax entropy: test where the model is most uncertain.
    Entropy,
    /// OP density × (1 − margin): the paper's combination — likely inputs
    /// in buggy regions.
    OpTimesMargin,
    /// OP density × entropy.
    OpTimesEntropy,
}

impl SeedWeighting {
    /// All supported weightings, for ablation sweeps (experiment E4).
    pub fn all() -> [SeedWeighting; 6] {
        [
            SeedWeighting::Uniform,
            SeedWeighting::OpDensity,
            SeedWeighting::Margin,
            SeedWeighting::Entropy,
            SeedWeighting::OpTimesMargin,
            SeedWeighting::OpTimesEntropy,
        ]
    }

    /// A short identifier for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SeedWeighting::Uniform => "uniform",
            SeedWeighting::OpDensity => "op",
            SeedWeighting::Margin => "margin",
            SeedWeighting::Entropy => "entropy",
            SeedWeighting::OpTimesMargin => "op*margin",
            SeedWeighting::OpTimesEntropy => "op*entropy",
        }
    }

    /// The weighting as JSON: its [`SeedWeighting::name`].
    pub(crate) fn to_json(self) -> JsonValue {
        self.name().into()
    }

    /// Reads [`SeedWeighting::to_json`] output.
    ///
    /// # Errors
    ///
    /// When `v` is not the name of a weighting.
    pub(crate) fn from_json(v: &JsonValue) -> Result<Self, String> {
        let name = v.to_str()?;
        SeedWeighting::all()
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown seed weighting {name:?}"))
    }
}

/// Weight-based seed sampler over an operational dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSampler {
    weighting: SeedWeighting,
}

impl SeedSampler {
    /// Creates a sampler with the given weighting scheme.
    pub fn new(weighting: SeedWeighting) -> Self {
        SeedSampler { weighting }
    }

    /// The weighting scheme.
    pub fn weighting(&self) -> SeedWeighting {
        self.weighting
    }

    /// Computes per-seed weights over `data`.
    ///
    /// `op` supplies the density for OP-aware weightings (mandatory for
    /// those; ignored otherwise).
    ///
    /// Implemented as one [`SeedWeightAccumulator`] pass over the whole
    /// dataset, so a sharded campaign that accumulates disjoint index
    /// slices and merges produces the same weights this method does.
    ///
    /// # Errors
    ///
    /// Fails when an OP-aware weighting lacks a density, or the model
    /// rejects the batch.
    pub fn weights<D: Density + Sync>(
        &self,
        net: &mut Network,
        data: &Dataset,
        op: Option<&D>,
    ) -> Result<Vec<f64>, PipelineError> {
        let n = data.len();
        if n == 0 {
            return Err(PipelineError::CannotSample {
                reason: "empty operational dataset".into(),
            });
        }
        let mut acc = SeedWeightAccumulator::new(self.weighting);
        let all: Vec<usize> = (0..n).collect();
        acc.accumulate(net, data, &all, op)?;
        acc.finalize(n)
    }

    /// Multiplies `weights` by the reliability model's per-cell testing
    /// priority — the RQ5 → RQ2 feedback arrow of Figure 1. `cells[i]` is
    /// the OP cell of sample `i`, as the caller already assigned it.
    ///
    /// # Errors
    ///
    /// Fails when `weights` and `cells` differ in length, or a cell has no
    /// priority.
    pub fn apply_cell_priority(
        &self,
        weights: &mut [f64],
        cells: &[usize],
        priority: &[f64],
    ) -> Result<(), PipelineError> {
        if weights.len() != cells.len() {
            return Err(PipelineError::InvalidConfig {
                reason: format!("{} weights for {} samples", weights.len(), cells.len()),
            });
        }
        for (w, &cell) in weights.iter_mut().zip(cells) {
            let Some(&p) = priority.get(cell) else {
                return Err(PipelineError::InvalidConfig {
                    reason: format!("cell {cell} has no priority ({} cells)", priority.len()),
                });
            };
            *w *= p.max(1e-12);
        }
        Ok(())
    }

    /// Starts an empty mergeable weight computation for this sampler's
    /// weighting scheme.
    pub fn accumulator(&self) -> SeedWeightAccumulator {
        SeedWeightAccumulator::new(self.weighting)
    }

    /// Samples `k` distinct indices with probability proportional to
    /// `weights`, without replacement (Efraimidis–Spirakis keys).
    ///
    /// # Errors
    ///
    /// Fails when `k` exceeds the population or all weights vanish.
    pub fn sample(
        &self,
        weights: &[f64],
        k: usize,
        rng: &mut Rng,
    ) -> Result<Vec<usize>, PipelineError> {
        if k == 0 || k > weights.len() {
            return Err(PipelineError::CannotSample {
                reason: format!("cannot draw {k} seeds from {} candidates", weights.len()),
            });
        }
        if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return Err(PipelineError::CannotSample {
                reason: "weights must be finite and nonnegative".into(),
            });
        }
        if weights.iter().sum::<f64>() <= 0.0 {
            return Err(PipelineError::CannotSample {
                reason: "all weights are zero".into(),
            });
        }
        // key_i = u_i^(1/w_i); take the k largest keys (w=0 → key 0, never
        // chosen while positive-weight candidates remain).
        let mut keyed: Vec<(f64, usize)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let u: f64 = rng.gen_f64().max(1e-300);
                let key = if w > 0.0 { u.powf(1.0 / w) } else { 0.0 };
                (key, i)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite keys"));
        Ok(keyed.into_iter().take(k).map(|(_, i)| i).collect())
    }
}

/// One seed's raw (unnormalized) weight statistics.
#[derive(Debug, Clone, Copy)]
struct WeightEntry {
    index: usize,
    /// Raw OP log-density (0.0 when the weighting ignores the OP — the
    /// shared max then cancels to exactly 1.0 in `finalize`).
    log_op: f64,
    /// Model-uncertainty factor (1.0 when the weighting ignores it).
    model: f64,
}

/// A mergeable partial computation of [`SeedSampler::weights`].
///
/// Shards accumulate disjoint index subsets independently and merge; the
/// result finalizes to the same bits as a single pass over the whole
/// dataset, because per-seed statistics are stored *raw* (log-densities,
/// uncertainty scores) and every global operation — max-normalization in
/// log space, the all-zero uniform fallback — is deferred to
/// [`finalize`](Self::finalize), which first canonicalizes entry order by
/// seed index.
#[derive(Debug, Clone)]
pub struct SeedWeightAccumulator {
    weighting: SeedWeighting,
    entries: Vec<WeightEntry>,
}

impl SeedWeightAccumulator {
    /// Creates an empty accumulator for `weighting`.
    pub fn new(weighting: SeedWeighting) -> Self {
        SeedWeightAccumulator {
            weighting,
            entries: Vec::new(),
        }
    }

    /// The weighting scheme this accumulator computes.
    pub fn weighting(&self) -> SeedWeighting {
        self.weighting
    }

    /// Number of seeds accumulated so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no seeds have been accumulated yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Scores the seeds at `indices` (positions into `data`) and records
    /// their raw statistics.
    ///
    /// # Errors
    ///
    /// Fails when an OP-aware weighting lacks a density, an index is out
    /// of range, or the model rejects the batch.
    pub fn accumulate<D: Density + Sync>(
        &mut self,
        net: &mut Network,
        data: &Dataset,
        indices: &[usize],
        op: Option<&D>,
    ) -> Result<(), PipelineError> {
        if indices.is_empty() {
            return Ok(());
        }
        let needs_op = matches!(
            self.weighting,
            SeedWeighting::OpDensity | SeedWeighting::OpTimesMargin | SeedWeighting::OpTimesEntropy
        );
        let needs_model = matches!(
            self.weighting,
            SeedWeighting::Margin
                | SeedWeighting::Entropy
                | SeedWeighting::OpTimesMargin
                | SeedWeighting::OpTimesEntropy
        );
        let subset = data.select(indices)?;
        let log_op: Option<Vec<f64>> = if needs_op {
            let density = op.ok_or(PipelineError::InvalidConfig {
                reason: format!("weighting {:?} needs an OP density", self.weighting),
            })?;
            Some(log_density_batch(density, subset.features())?)
        } else {
            None
        };
        let model: Option<Vec<f64>> = if needs_model {
            let logits = net.forward(subset.features(), false)?;
            let v: Vec<f64> = match self.weighting {
                SeedWeighting::Margin | SeedWeighting::OpTimesMargin => prediction_margin(&logits)?
                    .into_iter()
                    .map(|m| (1.0 - m as f64).max(1e-9))
                    .collect(),
                _ => prediction_entropy(&logits)?
                    .into_iter()
                    .map(|h| (h as f64).max(1e-9))
                    .collect(),
            };
            Some(v)
        } else {
            None
        };
        for (j, &index) in indices.iter().enumerate() {
            self.entries.push(WeightEntry {
                index,
                log_op: log_op.as_ref().map_or(0.0, |v| v[j]),
                model: model.as_ref().map_or(1.0, |v| v[j]),
            });
        }
        Ok(())
    }

    /// Absorbs another shard's entries.
    ///
    /// # Errors
    ///
    /// Fails when the weighting schemes differ.
    pub fn merge(&mut self, other: &SeedWeightAccumulator) -> Result<(), PipelineError> {
        if self.weighting != other.weighting {
            return Err(PipelineError::InvalidConfig {
                reason: format!(
                    "cannot merge a {:?} accumulator into a {:?} one",
                    other.weighting, self.weighting
                ),
            });
        }
        self.entries.extend_from_slice(&other.entries);
        Ok(())
    }

    /// Resolves the accumulated statistics into the final weight vector
    /// over seeds `0..n`, in index order.
    ///
    /// Applies the global operations exactly as the single-pass
    /// [`SeedSampler::weights`] does: max-normalization of OP
    /// log-densities, product with the model factor, and the degenerate
    /// all-zero → uniform fallback.
    ///
    /// # Errors
    ///
    /// Fails unless the entries cover `0..n` exactly once each —
    /// duplicates or gaps mean shards overlapped or dropped seeds, which
    /// would silently skew the distribution.
    pub fn finalize(self, n: usize) -> Result<Vec<f64>, PipelineError> {
        let mut entries = self.entries;
        entries.sort_by_key(|e| e.index);
        if entries.len() != n || entries.iter().enumerate().any(|(i, e)| e.index != i) {
            return Err(PipelineError::InvalidConfig {
                reason: format!(
                    "accumulator holds {} entries for {} seeds (shards overlapped or dropped indices)",
                    entries.len(),
                    n
                ),
            });
        }
        // Normalise in log space to avoid underflow.
        let m = entries
            .iter()
            .map(|e| e.log_op)
            .fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = entries
            .iter()
            .map(|e| (e.log_op - m).exp() * e.model)
            .collect();
        if weights.iter().sum::<f64>() <= 0.0 {
            // Degenerate: fall back to uniform rather than failing the run.
            return Ok(vec![1.0; n]);
        }
        Ok(weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opad_nn::{Activation, Network};
    use opad_opmodel::{Gmm, GmmComponent, Partition};
    use opad_tensor::Tensor;

    fn rng() -> Rng {
        Rng::seed_from_u64(0)
    }

    fn toy_net() -> Network {
        let mut r = rng();
        Network::mlp(&[2, 8, 2], Activation::Tanh, &mut r).unwrap()
    }

    fn toy_data() -> Dataset {
        // Four points: two near origin, two far away.
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.1, 0.1, 5.0, 5.0, 6.0, 5.0], &[4, 2]).unwrap();
        Dataset::new(x, vec![0, 0, 1, 1], 2).unwrap()
    }

    fn origin_op() -> Gmm {
        Gmm::from_components(vec![GmmComponent {
            weight: 1.0,
            mean: vec![0.0, 0.0],
            std: 1.0,
        }])
        .unwrap()
    }

    #[test]
    fn uniform_weights() {
        let mut net = toy_net();
        let s = SeedSampler::new(SeedWeighting::Uniform);
        let w = s.weights::<Gmm>(&mut net, &toy_data(), None).unwrap();
        assert_eq!(w, vec![1.0; 4]);
        assert_eq!(s.weighting(), SeedWeighting::Uniform);
    }

    #[test]
    fn op_weights_favor_dense_regions() {
        let mut net = toy_net();
        let op = origin_op();
        let s = SeedSampler::new(SeedWeighting::OpDensity);
        let w = s.weights(&mut net, &toy_data(), Some(&op)).unwrap();
        assert!(w[0] > w[2] * 100.0, "origin {} vs far {}", w[0], w[2]);
        assert!(w[1] > w[3] * 100.0);
    }

    #[test]
    fn op_weighting_requires_density() {
        let mut net = toy_net();
        let s = SeedSampler::new(SeedWeighting::OpDensity);
        assert!(matches!(
            s.weights::<Gmm>(&mut net, &toy_data(), None),
            Err(PipelineError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn margin_and_entropy_weights_are_positive() {
        let mut net = toy_net();
        for weighting in [SeedWeighting::Margin, SeedWeighting::Entropy] {
            let s = SeedSampler::new(weighting);
            let w = s.weights::<Gmm>(&mut net, &toy_data(), None).unwrap();
            assert_eq!(w.len(), 4);
            assert!(w.iter().all(|&x| x > 0.0), "{weighting:?}: {w:?}");
        }
    }

    #[test]
    fn combined_weights_multiply() {
        let mut net = toy_net();
        let op = origin_op();
        let s_m = SeedSampler::new(SeedWeighting::Margin);
        let s_o = SeedSampler::new(SeedWeighting::OpDensity);
        let s_om = SeedSampler::new(SeedWeighting::OpTimesMargin);
        let wm = s_m.weights(&mut net, &toy_data(), Some(&op)).unwrap();
        let wo = s_o.weights(&mut net, &toy_data(), Some(&op)).unwrap();
        let wom = s_om.weights(&mut net, &toy_data(), Some(&op)).unwrap();
        for i in 0..4 {
            assert!((wom[i] - wm[i] * wo[i]).abs() < 1e-9 * wm[i].max(1.0));
        }
    }

    #[test]
    fn sampling_without_replacement() {
        let s = SeedSampler::new(SeedWeighting::Uniform);
        let mut r = rng();
        let w = vec![1.0; 10];
        let idx = s.sample(&w, 10, &mut r).unwrap();
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "indices must be distinct");
        assert!(s.sample(&w, 0, &mut r).is_err());
        assert!(s.sample(&w, 11, &mut r).is_err());
        assert!(s.sample(&[0.0, 0.0], 1, &mut r).is_err());
        assert!(s.sample(&[1.0, f64::NAN], 1, &mut r).is_err());
        assert!(s.sample(&[1.0, -1.0], 1, &mut r).is_err());
    }

    #[test]
    fn heavy_weights_win_more_often() {
        let s = SeedSampler::new(SeedWeighting::Uniform);
        let mut r = rng();
        let w = vec![10.0, 1.0, 1.0, 1.0];
        let mut hits = 0;
        const TRIALS: usize = 2000;
        for _ in 0..TRIALS {
            let idx = s.sample(&w, 1, &mut r).unwrap();
            if idx[0] == 0 {
                hits += 1;
            }
        }
        let f = hits as f64 / TRIALS as f64;
        assert!((f - 10.0 / 13.0).abs() < 0.05, "heavy hit rate {f}");
    }

    #[test]
    fn zero_weight_items_excluded_when_possible() {
        let s = SeedSampler::new(SeedWeighting::Uniform);
        let mut r = rng();
        let w = vec![0.0, 1.0, 1.0];
        for _ in 0..100 {
            let idx = s.sample(&w, 2, &mut r).unwrap();
            assert!(!idx.contains(&0), "zero-weight index drawn: {idx:?}");
        }
    }

    #[test]
    fn cell_priority_boost() {
        let mut net = toy_net();
        let s = SeedSampler::new(SeedWeighting::Uniform);
        let data = toy_data();
        let mut w = s.weights::<Gmm>(&mut net, &data, None).unwrap();
        let partition = opad_opmodel::CentroidPartition::from_centroids(
            Tensor::from_vec(vec![0.0, 0.0, 5.0, 5.0], &[2, 2]).unwrap(),
        )
        .unwrap();
        let cells: Vec<usize> = (0..data.len())
            .map(|i| partition.cell_of(data.features().row(i).unwrap().as_slice()))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(cells, [0, 0, 1, 1]);
        // All priority on cell 0 (the origin).
        s.apply_cell_priority(&mut w, &cells, &[1.0, 0.0]).unwrap();
        assert!(w[0] > 0.0 && w[1] > 0.0);
        assert!(w[2] < 1e-6 && w[3] < 1e-6);
        // Validation: a length mismatch, and a cell without a priority.
        let mut short = vec![1.0];
        assert!(s
            .apply_cell_priority(&mut short, &cells, &[1.0, 0.0])
            .is_err());
        let mut w2 = vec![1.0; 4];
        assert!(s.apply_cell_priority(&mut w2, &cells, &[1.0]).is_err());
    }

    #[test]
    fn accumulator_fold_matches_weights_bitwise() {
        // The sharding contract for RQ2: scoring disjoint index slices
        // independently and merging reproduces the single-pass weights
        // bit for bit, for every weighting and shard count.
        let data = toy_data();
        let op = origin_op();
        for weighting in SeedWeighting::all() {
            let mut net = toy_net();
            let s = SeedSampler::new(weighting);
            let reference = s.weights(&mut net, &data, Some(&op)).unwrap();
            for shards in [1usize, 2, 3, 4] {
                let mut acc = s.accumulator();
                for shard in 0..shards {
                    let idx: Vec<usize> = (0..data.len()).filter(|i| i % shards == shard).collect();
                    let mut partial = s.accumulator();
                    partial
                        .accumulate(&mut net, &data, &idx, Some(&op))
                        .unwrap();
                    acc.merge(&partial).unwrap();
                }
                let folded = acc.finalize(data.len()).unwrap();
                let same = reference
                    .iter()
                    .zip(&folded)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    same,
                    "{weighting:?}/{shards} shards: {reference:?} vs {folded:?}"
                );
            }
        }
    }

    #[test]
    fn accumulator_merge_commutes_up_to_ordering() {
        let data = toy_data();
        let op = origin_op();
        let mut net = toy_net();
        let s = SeedSampler::new(SeedWeighting::OpTimesEntropy);
        let mut a = s.accumulator();
        a.accumulate(&mut net, &data, &[0, 2], Some(&op)).unwrap();
        let mut b = s.accumulator();
        b.accumulate(&mut net, &data, &[3, 1], Some(&op)).unwrap();
        assert_eq!(a.len(), 2);
        assert!(!b.is_empty());
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        let wab = ab.finalize(4).unwrap();
        let wba = ba.finalize(4).unwrap();
        let same = wab
            .iter()
            .zip(&wba)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "merge order changed the weights: {wab:?} vs {wba:?}");
    }

    #[test]
    fn accumulator_identity_and_validation() {
        let data = toy_data();
        let mut net = toy_net();
        let s = SeedSampler::new(SeedWeighting::Entropy);
        // Empty accumulators are the identity element.
        let mut acc = s.accumulator();
        acc.merge(&s.accumulator()).unwrap();
        acc.accumulate::<Gmm>(&mut net, &data, &[0, 1, 2, 3], None)
            .unwrap();
        acc.merge(&s.accumulator()).unwrap();
        let w = acc.clone().finalize(4).unwrap();
        assert_eq!(w.len(), 4);
        assert_eq!(acc.weighting(), SeedWeighting::Entropy);
        // Mixed weightings must not merge.
        let other = SeedSampler::new(SeedWeighting::Uniform).accumulator();
        assert!(acc.merge(&other).is_err());
        // Gaps and duplicates fail loudly.
        let mut gap = s.accumulator();
        gap.accumulate::<Gmm>(&mut net, &data, &[0, 1], None)
            .unwrap();
        assert!(gap.finalize(4).is_err());
        let mut dup = s.accumulator();
        dup.accumulate::<Gmm>(&mut net, &data, &[0, 1, 1, 2], None)
            .unwrap();
        assert!(dup.finalize(4).is_err());
        // Accumulating nothing is a no-op, not an error.
        let mut noop = s.accumulator();
        noop.accumulate::<Gmm>(&mut net, &data, &[], None).unwrap();
        assert!(noop.is_empty());
    }

    #[test]
    fn all_weightings_have_names() {
        let names: std::collections::HashSet<_> =
            SeedWeighting::all().iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 6);
    }
}
