//! Estimators: medians, nearest-rank percentiles, and a seeded reservoir.

use crate::gen::Rng;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (`0.0..=1.0`) of `values`; 0 when empty.
pub fn percentile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

/// Median of the element-wise ratios `num[i] / den[i]`.
pub fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    let ratios: Vec<f64> = num
        .iter()
        .zip(den)
        .filter(|(_, d)| **d > 0.0)
        .map(|(n, d)| n / d)
        .collect();
    median(&ratios)
}

/// A uniform sample of a stream of durations (Algorithm R) with a seeded
/// replacement stream, so a long traced run keeps bounded memory.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    items: Vec<u64>,
    rng: Rng,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap,
            seen: 0,
            items: Vec::new(),
            rng: Rng::new(seed),
        }
    }

    pub fn push(&mut self, value: u64) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(value);
        } else {
            let slot = self.rng.next_u64() % self.seen;
            if (slot as usize) < self.cap {
                self.items[slot as usize] = value;
            }
        }
    }

    pub fn merge(&mut self, other: &Reservoir) {
        for &v in &other.items {
            self.push(v);
        }
    }

    pub fn items(&self) -> &[u64] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimators() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median_ratio(&[2.0, 6.0, 9.0], &[1.0, 2.0, 3.0]), 3.0);
        let mut r = Reservoir::new(10, 1);
        for i in 0..1000 {
            r.push(i);
        }
        assert_eq!(r.items().len(), 10);
    }
}
