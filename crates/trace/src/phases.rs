//! Named-phase duration accounting and the Figure-3 breakdown table.
//!
//! [`PhaseAccumulator`] is the canonical store for per-phase wall time: an
//! insertion-ordered registry backed by an index map, so accumulating into
//! an existing phase is O(1) — it is called once per BFS source (m pivots ×
//! k phases over a run), which made the previous linear-scan registry in
//! `parhde-util` quadratic in the phase count. Every run record keeps its
//! phase times in one ([`Totals::phases`](crate::Totals::phases)).
//!
//! [`render_breakdown`] prints the per-phase percentage table the paper's
//! Figures 3, 5 and 6 plot.

use std::collections::HashMap;
use std::time::Duration;

/// Accumulates named phase durations with first-occurrence ordering and
/// O(1) accumulation per `add`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseAccumulator {
    entries: Vec<(String, Duration)>,
    index: HashMap<String, usize>,
}

impl PhaseAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `d` to the accumulated duration of phase `name`.
    pub fn add(&mut self, name: &str, d: Duration) {
        match self.index.get(name) {
            Some(&i) => self.entries[i].1 += d,
            None => {
                self.index.insert(name.to_string(), self.entries.len());
                self.entries.push((name.to_string(), d));
            }
        }
    }

    /// Accumulated duration of phase `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.index.get(name).map(|&i| self.entries[i].1)
    }

    /// Accumulated seconds of phase `name` (0.0 if not recorded).
    pub fn seconds(&self, name: &str) -> f64 {
        self.get(name).map(|d| d.as_secs_f64()).unwrap_or(0.0)
    }

    /// Sum of all recorded phase durations.
    pub fn total(&self) -> Duration {
        self.entries.iter().map(|(_, d)| *d).sum()
    }

    /// Iterates over `(name, duration)` pairs in first-recorded order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Duration)> {
        self.entries.iter().map(|(n, d)| (n.as_str(), *d))
    }

    /// Percentage of the total attributed to each phase, in recorded order
    /// (all zeros if the total is zero).
    pub fn percentages(&self) -> Vec<(String, f64)> {
        let total = self.total().as_secs_f64();
        self.entries
            .iter()
            .map(|(n, d)| {
                let pct = if total > 0.0 {
                    100.0 * d.as_secs_f64() / total
                } else {
                    0.0
                };
                (n.clone(), pct)
            })
            .collect()
    }

    /// Merges another accumulator into this one (summing same-named
    /// phases; new phases append in the other's order).
    pub fn merge(&mut self, other: &PhaseAccumulator) {
        for (n, d) in other.iter() {
            self.add(n, d);
        }
    }

    /// Number of distinct phases recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no phase has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Renders the per-phase breakdown table: seconds and percentage per entry
/// plus a total row — the paper's Figure-3/5/6 percentage splits in text
/// form. `entries` are `(name, seconds)` in display order.
///
/// ```
/// let table = parhde_trace::phases::render_breakdown(&[
///     ("BFS".to_string(), 0.075),
///     ("Other".to_string(), 0.025),
/// ]);
/// assert!(table.contains("75.0"));
/// ```
pub fn render_breakdown(entries: &[(String, f64)]) -> String {
    let total: f64 = entries.iter().map(|(_, s)| s).sum();
    let name_w = entries
        .iter()
        .map(|(n, _)| n.len())
        .chain(std::iter::once("total".len()))
        .max()
        .unwrap_or(5)
        .max(5);
    let mut out = String::new();
    out.push_str(&format!("{:<name_w$}  {:>12}  {:>6}\n", "phase", "seconds", "%"));
    for (name, secs) in entries {
        let pct = if total > 0.0 { 100.0 * secs / total } else { 0.0 };
        out.push_str(&format!("{name:<name_w$}  {secs:>12.6}  {pct:>6.1}\n"));
    }
    let total_pct = if total > 0.0 { 100.0 } else { 0.0 };
    out.push_str(&format!("{:<name_w$}  {total:>12.6}  {total_pct:>6.1}\n", "total"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_in_constant_entries() {
        let mut p = PhaseAccumulator::new();
        // Simulate the m-pivots-times-k-phases pattern that made the old
        // linear-scan registry quadratic.
        for _ in 0..10_000 {
            p.add("bfs", Duration::from_nanos(1));
            p.add("bfs_other", Duration::from_nanos(1));
        }
        assert_eq!(p.len(), 2);
        assert_eq!(p.get("bfs"), Some(Duration::from_nanos(10_000)));
    }

    #[test]
    fn preserves_first_occurrence_order() {
        let mut p = PhaseAccumulator::new();
        p.add("c", Duration::from_millis(1));
        p.add("a", Duration::from_millis(1));
        p.add("b", Duration::from_millis(1));
        p.add("a", Duration::from_millis(1));
        let names: Vec<&str> = p.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["c", "a", "b"]);
    }

    #[test]
    fn percentages_sum_to_hundred() {
        let mut p = PhaseAccumulator::new();
        p.add("x", Duration::from_millis(30));
        p.add("y", Duration::from_millis(70));
        let pct = p.percentages();
        assert!((pct.iter().map(|(_, v)| v).sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((pct[0].1 - 30.0).abs() < 1e-9);
        assert!(PhaseAccumulator::new().percentages().is_empty());
    }

    #[test]
    fn merge_sums_and_appends() {
        let mut a = PhaseAccumulator::new();
        a.add("x", Duration::from_millis(10));
        let mut b = PhaseAccumulator::new();
        b.add("x", Duration::from_millis(5));
        b.add("y", Duration::from_millis(2));
        a.merge(&b);
        assert_eq!(a.get("x"), Some(Duration::from_millis(15)));
        assert_eq!(a.get("y"), Some(Duration::from_millis(2)));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn breakdown_table_shows_percentages() {
        let table = render_breakdown(&[
            ("BFS".to_string(), 0.06),
            ("TripleProd".to_string(), 0.03),
            ("DOrtho".to_string(), 0.01),
        ]);
        assert!(table.contains("BFS"), "{table}");
        assert!(table.contains("60.0"), "{table}");
        assert!(table.contains("30.0"), "{table}");
        assert!(table.contains("total"), "{table}");
        assert!(table.contains("100.0"), "{table}");
    }

    #[test]
    fn breakdown_of_empty_total_is_all_zero() {
        let table = render_breakdown(&[("BFS".to_string(), 0.0)]);
        assert!(table.contains("0.0"));
        assert!(!table.contains("NaN"));
    }
}
