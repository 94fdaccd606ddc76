//! Nonparametric effect sizes.
//!
//! A p-value says a difference exists; an effect size says whether it
//! matters. For the skewed, heavy-tailed samples cloud experiments
//! produce, **Cliff's delta** is the standard companion to the
//! Mann–Whitney test: the probability that a random draw from one group
//! beats a random draw from the other, rescaled to `[-1, 1]`.

/// Cliff's delta between samples `a` and `b`:
/// `δ = (#{a_i > b_j} − #{a_i < b_j}) / (n_a · n_b)`.
///
/// Positive values mean `a` tends to exceed `b`. Computed in
/// `O((n_a + n_b) log)` via sorting rather than the naive quadratic
/// scan. Panics on empty input.
pub fn cliffs_delta(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "empty sample");
    let mut sb: Vec<f64> = b.to_vec();
    sb.sort_by(|x, y| x.total_cmp(y));
    let nb = sb.len() as f64;
    let mut sum = 0.0f64;
    for &x in a {
        // #(b < x) and #(b <= x) via binary search on the sorted b.
        let below = sb.partition_point(|&v| v < x) as f64;
        let not_above = sb.partition_point(|&v| v <= x) as f64;
        let above = nb - not_above;
        sum += below - above;
    }
    sum / (a.len() as f64 * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_groups_give_unit_delta() {
        let a = [10.0, 11.0, 12.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(cliffs_delta(&a, &b), 1.0);
        assert_eq!(cliffs_delta(&b, &a), -1.0);
    }

    #[test]
    fn identical_groups_give_zero() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(cliffs_delta(&a, &a), 0.0);
    }

    #[test]
    fn matches_naive_computation() {
        let a = [1.0, 3.0, 3.0, 5.0, 9.0];
        let b = [2.0, 3.0, 4.0, 4.0];
        let mut naive = 0.0;
        for &x in &a {
            for &y in &b {
                naive += (x > y) as i32 as f64 - ((x < y) as i32 as f64);
            }
        }
        naive /= (a.len() * b.len()) as f64;
        assert!((cliffs_delta(&a, &b) - naive).abs() < 1e-12);
    }

    #[test]
    fn antisymmetric() {
        let a = [1.0, 5.0, 7.0, 7.0];
        let b = [2.0, 2.0, 6.0];
        assert!((cliffs_delta(&a, &b) + cliffs_delta(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn shifted_overlapping_groups() {
        // b = a + 0.5 with unit spacing → most pairs favour b.
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..20).map(|i| i as f64 + 0.5).collect();
        let d = cliffs_delta(&b, &a);
        assert!(d > 0.0 && d < 0.2, "delta {d}");
    }
}
