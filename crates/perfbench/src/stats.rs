//! Pure aggregation logic: medians, the tail-percentile rule, and the
//! output-digest check. Everything here is unit-tested without running a
//! workload.

use oscache_core::supervise::fnv1a;
use std::collections::{BTreeMap, BTreeSet};

/// The median of `xs` (mean of the two middle values for an even count;
/// NaN for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Candidate tail percentiles, in tenths of a percent, highest first.
/// The ladder tops out at p99, the tail the latency metric is named for.
const TAIL_LADDER: [u64; 6] = [990, 980, 950, 900, 750, 500];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest-rank index of percentile `tenths / 10` among `n`
/// samples (integer arithmetic, so 99 % of 1000 is exactly rank 990).
fn rank(tenths: u64, n: usize) -> usize {
    let n = n as u64;
    (tenths * n).div_ceil(1000).max(1) as usize
}

/// The tail-percentile rule: the highest percentile of the ladder
/// (99, 98, 95, 90, 75, 50) that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it among `n` samples, or `None`
/// when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .find(|&&t| n >= rank(t, n) + TAIL_MIN_BEYOND)
        .map(|&t| t as f64 / 10.0)
}

/// Nearest-rank percentile `p` of `xs` (NaN for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank((p * 10.0).round() as u64, v.len()).min(v.len()) - 1]
}

/// Each operation's typical latency: its median over the repetitions.
/// Every repetition runs the same operations, those sharing a tag in the
/// same order, so the k-th operation tagged `t` is one operation in all of
/// them. A stall of the host delays an operation in one repetition, not in
/// most, so the median drops it and keeps the latency the program gives
/// that operation; the percentiles are then taken over these.
pub fn typical_latencies(reps: &[Vec<(&str, f64)>]) -> Vec<f64> {
    let mut per_op: BTreeMap<(&str, usize), Vec<f64>> = BTreeMap::new();
    for rep in reps {
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for &(tag, ms) in rep {
            let k = seen.entry(tag).or_insert(0);
            per_op.entry((tag, *k)).or_default().push(ms);
            *k += 1;
        }
    }
    per_op.values().map(|v| median(v)).collect()
}

/// A workload's output, canonicalized: `tag → value`, where a tag names
/// one checked output (`cell:<key>` → OS read misses and total cycles,
/// `report:<experiment>` → the rendered report's FNV-1a digest).
pub type DigestLines = BTreeMap<String, String>;

/// The FNV-1a digest of a canonical output, as 16 hex digits.
pub fn digest(lines: &DigestLines) -> String {
    let mut text = String::new();
    for (tag, value) in lines {
        text.push_str(tag);
        text.push('\t');
        text.push_str(value);
        text.push('\n');
    }
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// The digest line of a rendered report.
pub fn report_value(report: &str) -> String {
    format!("{:016x}", fnv1a(report.as_bytes()))
}

/// Tags whose value differs between `actual` and `expected`, including
/// tags present on one side only.
pub fn mismatched_tags(actual: &DigestLines, expected: &DigestLines) -> BTreeSet<String> {
    let tags: BTreeSet<&String> = actual.keys().chain(expected.keys()).collect();
    tags.into_iter()
        .filter(|t| actual.get(*t) != expected.get(*t))
        .cloned()
        .collect()
}

/// The committed expected lines of `workload` at the golden seed, parsed
/// from the `workload<TAB>tag<TAB>value` file format.
pub fn expected_lines(file: &str, workload: &str) -> DigestLines {
    file.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, '\t');
            let (w, tag, value) = (parts.next()?, parts.next()?, parts.next()?);
            (w == workload).then(|| (tag.to_string(), value.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(10_000), Some(99.0));
        assert_eq!(tail_percentile(540), Some(98.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(48), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 20..5000 {
            let p = tail_percentile(n).expect("n >= 20 has a median tail");
            let beyond = n - rank((p * 10.0).round() as u64, n);
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn typical_latency_drops_a_stall_in_one_repetition() {
        let rep = |stall: f64| vec![("a", 1.0), ("b", 2.0 + stall), ("a", 3.0)];
        let mut typical = typical_latencies(&[rep(0.0), rep(50.0), rep(0.0)]);
        typical.sort_by(f64::total_cmp);
        assert_eq!(typical, [1.0, 2.0, 3.0]);
        assert!(typical_latencies(&[]).is_empty());
    }

    fn sample() -> DigestLines {
        let mut lines = DigestLines::new();
        lines.insert("cell:TRFD_4/Base".into(), "31615 123456".into());
        lines.insert("report:table1".into(), report_value("Table 1\nrow\n"));
        lines
    }

    #[test]
    fn tampered_output_fails_the_digest_check() {
        let expected = sample();
        let file: String = expected
            .iter()
            .map(|(t, v)| format!("matrix\t{t}\t{v}\n"))
            .collect();
        let committed = expected_lines(&file, "matrix");
        assert!(mismatched_tags(&sample(), &committed).is_empty());
        assert_eq!(digest(&sample()), digest(&committed));

        let mut tampered = sample();
        tampered.insert("report:table1".into(), report_value("Table 1\nrow!\n"));
        let bad = mismatched_tags(&tampered, &committed);
        assert_eq!(bad.into_iter().collect::<Vec<_>>(), ["report:table1"]);
        assert_ne!(digest(&tampered), digest(&committed));

        let mut missing = sample();
        missing.remove("cell:TRFD_4/Base");
        assert!(mismatched_tags(&missing, &committed).contains("cell:TRFD_4/Base"));
        assert!(expected_lines(&file, "spill").is_empty());
    }
}
