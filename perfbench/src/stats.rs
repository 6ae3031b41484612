//! Exact order statistics over raw samples.
//!
//! Percentiles are interpolated between the two nearest order statistics
//! of the raw samples (the method `numpy.percentile` uses by default), so
//! they move continuously with the data. Log-bucket histograms such as
//! `kg_telemetry::Histogram` report bucket upper edges and move in 2×
//! steps, which hides any change smaller than a factor of two.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`; `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q`-quantile of each group of samples (a pass or a round), then the
/// median of those: a stall of the shared host that spoils one pass moves
/// this by one rank instead of dragging the pooled tail.
pub fn median_of_quantiles<'a>(groups: impl Iterator<Item = &'a [f64]>, q: f64) -> f64 {
    let per_group: Vec<f64> = groups
        .filter(|g| !g.is_empty())
        .map(|g| quantile(g, q))
        .collect();
    median(&per_group)
}

/// Passes in which the host stole at most this share of the CPU count as
/// quiet.
const QUIET_STEAL: f64 = 0.05;

/// Marks the passes (or rounds) the timing metrics are taken over: those in
/// which the host stole at most `QUIET_STEAL` of the CPU or, when fewer than
/// a quarter of them did, the quarter (at least one) in which it stole the
/// least. On a shared virtual machine the hypervisor's steal comes in
/// bursts that can halve the speed of a whole pass, so the metrics describe
/// the program rather than its neighbours; on a quiet host every pass
/// counts. Without steal readings (`NaN`) every pass counts.
pub fn quiet_passes(steal: &[f64]) -> Vec<bool> {
    if steal.is_empty() || steal.iter().any(|s| s.is_nan()) {
        return vec![true; steal.len()];
    }
    let quarter = steal.len().div_ceil(4);
    if steal.iter().filter(|&&s| s <= QUIET_STEAL).count() >= quarter {
        return steal.iter().map(|&s| s <= QUIET_STEAL).collect();
    }
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let mut keep = vec![false; steal.len()];
    for &i in &order[..quarter] {
        keep[i] = true;
    }
    keep
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quiet_passes_drop_stolen_ones_or_keep_the_quietest_quarter() {
        let keep = quiet_passes(&[0.01, 0.2, 0.05, 0.3]);
        assert_eq!(keep, [true, false, true, false]);
        let keep = quiet_passes(&[0.3, 0.1, 0.2, 0.15, 0.09]);
        assert_eq!(keep, [false, true, false, false, true]);
        assert_eq!(quiet_passes(&[0.4]), [true]);
        assert_eq!(quiet_passes(&[0.1, f64::NAN]), [true, true]);
    }
}

/// SplitMix64: the benchmark's own small deterministic generator, so the
/// inputs a seed makes do not depend on any crate's RNG.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
