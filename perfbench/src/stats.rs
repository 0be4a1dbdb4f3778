//! Order statistics and the JSON result line.

use std::fmt::Write as _;

/// Harrell-Davis estimate of the `p` quantile (`p` in 0..1) of `values`;
/// 0 when empty. A Beta-weighted mean of all order statistics: unlike the
/// nearest-rank percentile it does not jump between neighbouring samples
/// when a few distinct units, repeated, sit on either side of the rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (p * (n + 1.0), (1.0 - p) * (n + 1.0));
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n, a, b);
        sum += (cdf - prev) * x;
        prev = cdf;
    }
    sum
}

/// Regularized incomplete beta function `I_x(a, b)` (continued fraction,
/// after Numerical Recipes `betai`).
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(x, a, b) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(1.0 - x, b, a) / b
    }
}

fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..500 {
        let m = f64::from(m);
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-12 {
            break;
        }
    }
    h
}

/// Lanczos approximation of `ln(Gamma(x))` for `x > 0`.
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.001_208_650_973_866_179,
        -0.000_005_395_239_384_953,
    ];
    let tmp = x + 5.5 - (x + 0.5) * (x + 5.5).ln();
    let mut ser = 1.000_000_000_190_015;
    for (j, g) in G.iter().enumerate() {
        ser += g / (x + 1.0 + j as f64);
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank median, for counts (a sample, never a fractional blend).
pub fn median_count(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// Ratio that reads 0 instead of NaN or infinity when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metrics in the order they were recorded, each with its unit and, for
/// timings, the number of samples behind it.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str, Option<usize>)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_string(), value, unit, None));
    }

    /// A quantile over `samples` values.
    pub fn put_quantile(&mut self, name: &str, values: &[f64], p: f64, unit: &'static str) {
        self.put(name, percentile(values, p), unit);
        if let Some(last) = self.0.last_mut() {
            last.3 = Some(values.len());
        }
    }

    /// One line per metric, for the human reader of the run log.
    pub fn print_table(&self, title: &str) {
        println!("{title}");
        for (name, value, unit, samples) in &self.0 {
            let n = samples.map_or(String::new(), |n| format!("  ({n} samples)"));
            println!("  {name:<32} {value:>14.6} {unit}{n}");
        }
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": ..,
    /// "metrics": {name: {"value": .., "unit": ..}}}`.
    pub fn result_json(&self, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit, _)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_quantiles() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((percentile(&v, 0.5) - 51.0).abs() < 1e-6);
        assert!((percentile(&v, 0.9) - 91.8).abs() < 0.5);
        assert!((percentile(&[3.0], 0.99) - 3.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Two clusters of repeats: the estimate moves smoothly, not by a
        // whole gap, when one sample crosses the middle.
        let mut w = vec![10.0; 50];
        w.extend(vec![20.0; 50]);
        let m = percentile(&w, 0.5);
        w[49] = 20.0;
        assert!((percentile(&w, 0.5) - m).abs() < 2.0);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        assert!((beta_cdf(0.3, 1.0, 1.0) - 0.3).abs() < 1e-9);
        assert!((beta_cdf(0.3, 2.0, 1.0) - 0.09).abs() < 1e-9);
        assert!((beta_cdf(0.5, 7.0, 7.0) - 0.5).abs() < 1e-9);
    }
}
