//! Shared helpers for the experiment binaries that regenerate the paper's
//! figures and tables.
//!
//! Every binary in `src/bin/` reproduces one evaluation artifact of the
//! ICDCS 2007 paper (see `DESIGN.md`'s experiment index) and prints a
//! plain-text table to stdout; `EXPERIMENTS.md` records paper-claim versus
//! measured values. The `bench_*` binaries time the implementation
//! through [`time_reps`] and write `BENCH_*.json` records that carry each
//! timing's median and quartiles ([`Record`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Prints a section header for an experiment report.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints an aligned text table: a header row followed by data rows.
///
/// Column widths are derived from the widest cell per column.
///
/// # Example
///
/// ```
/// rshare_bench::print_table(
///     &["bin", "share"],
///     &[vec!["0".into(), "0.50".into()], vec!["1".into(), "0.25".into()]],
/// );
/// ```
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let mut out = String::new();
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>w$}", w = w));
        }
        println!("{out}");
    };
    line(headers.to_vec());
    let seps: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(seps.iter().map(String::as_str).collect());
    for row in rows {
        line(row.iter().map(String::as_str).collect());
    }
}

/// Wall-clock time one repetition of [`time_reps`] spent in each of its
/// `S` timed series, in nanoseconds.
#[derive(Debug)]
pub struct Lap<const S: usize>([f64; S]);

impl<const S: usize> Lap<S> {
    /// Runs `body`, adds its wall-clock time to series `series` of this
    /// repetition and returns its result. Work outside these calls (set-up,
    /// payload fills, warm-up runs) is not timed.
    pub fn time<R>(&mut self, series: usize, body: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = body();
        self.0[series] += start.elapsed().as_nanos() as f64;
        out
    }
}

/// The one timing loop of the `bench_*` binaries: runs `rep` `reps` times
/// and returns, for each of the `S` series `rep` times through its
/// [`Lap`], one sample per repetition in nanoseconds.
///
/// Series timed in the same repetition alternate with each other, so a
/// phase of host load longer than one repetition hits every series alike.
///
/// # Example
///
/// ```
/// let [a, b] = rshare_bench::time_reps(3, |lap| {
///     lap.time(0, || std::hint::black_box(1 + 1));
///     lap.time(1, || std::hint::black_box(2 + 2));
/// });
/// assert_eq!((a.len(), b.len()), (3, 3));
/// ```
pub fn time_reps<const S: usize>(reps: usize, mut rep: impl FnMut(&mut Lap<S>)) -> [Vec<f64>; S] {
    let mut samples: [Vec<f64>; S] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        let mut lap = Lap([0.0; S]);
        rep(&mut lap);
        for (series, ns) in samples.iter_mut().zip(lap.0) {
            series.push(ns);
        }
    }
    samples
}

/// [`time_reps`] for one body timed whole: `reps` wall-clock samples of
/// `body`, in nanoseconds.
pub fn time_each(reps: usize, mut body: impl FnMut()) -> Vec<f64> {
    let [ns] = time_reps(reps, |lap| lap.time(0, &mut body));
    ns
}

/// `items` per second for each nanosecond sample in `ns`.
#[must_use]
pub fn per_s(items: u64, ns: &[f64]) -> Vec<f64> {
    ns.iter().map(|&ns| items as f64 * 1e9 / ns).collect()
}

/// One observation in the unified cross-binary record schema.
///
/// Every `bench_*` binary emits a `"records"` array of these alongside
/// its binary-specific tables, so downstream tooling can diff runs
/// without knowing each report's shape: a named quantity, its unit, the
/// nearest-rank median and quartiles of its samples (one per timed
/// repetition) and — when the binary also measured a reference
/// configuration (serial, uncached, metrics-off, …) — that baseline's
/// median for the same quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Series name, `snake_case`, unique within one report.
    pub name: String,
    /// Unit of the samples (e.g. `blocks_per_s`, `percent`, `ratio`).
    pub unit: &'static str,
    /// Samples the quantiles are taken over: 1 for a value that is
    /// computed, not timed (a ratio, a byte count).
    pub reps: usize,
    /// Nearest-rank median of the samples; rendered as `value` too.
    pub median: f64,
    /// Nearest-rank 25th percentile of the samples.
    pub p25: f64,
    /// Nearest-rank 75th percentile of the samples.
    pub p75: f64,
    /// The same quantity in the reference configuration, if one exists.
    pub baseline: Option<f64>,
}

impl Record {
    /// A record of one computed value: `reps` 1 and equal quartiles.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self::from_samples(name, unit, &[value])
    }

    /// A record of `samples` in `unit`, one per repetition.
    ///
    /// # Panics
    ///
    /// If `samples` is empty.
    #[must_use]
    pub fn from_samples(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a record needs a sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = |p: f64| sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1];
        Self {
            name: name.into(),
            unit,
            reps: n,
            median: rank(0.5),
            p25: rank(0.25),
            p75: rank(0.75),
            baseline: None,
        }
    }

    /// This record measured against a reference configuration whose value
    /// (its median, if timed) is `baseline`.
    #[must_use]
    pub fn baseline(self, baseline: f64) -> Self {
        Self {
            baseline: Some(baseline),
            ..self
        }
    }
}

/// Renders the unified `"records": [...]` JSON fragment (hand-rolled —
/// no serde in the dependency set), indented for the two-space report
/// layout the `bench_*` binaries share. `value` is the median. The
/// fragment carries no trailing comma or newline; callers splice it
/// between other top-level keys.
#[must_use]
pub fn records_json(records: &[Record]) -> String {
    let mut s = String::from("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {:.4}, \"reps\": {}, \"median\": {:.4}, \"p25\": {:.4}, \"p75\": {:.4}",
            r.name, r.unit, r.median, r.reps, r.median, r.p25, r.p75
        ));
        if let Some(b) = r.baseline {
            s.push_str(&format!(", \"baseline\": {b:.4}"));
        }
        s.push('}');
        if i + 1 != records.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]");
    s
}

/// Formats a float with 4 decimal places (the precision used throughout
/// the experiment reports).
#[must_use]
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a percentage with 2 decimal places.
#[must_use]
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(f(0.123456), "0.1235");
        assert_eq!(pct(0.5), "50.00%");
    }

    #[test]
    fn records_take_nearest_rank_quartiles() {
        // (samples, p25, median, p75)
        let cases: [(&[f64], f64, f64, f64); 4] = [
            (&[7.0], 7.0, 7.0, 7.0),
            (&[9.0, 4.0], 4.0, 4.0, 9.0),
            (&[5.0, 1.0, 4.0, 2.0, 3.0], 2.0, 3.0, 4.0),
            (&[60.0, 10.0, 50.0, 20.0, 40.0, 30.0], 20.0, 30.0, 50.0),
        ];
        for (samples, p25, median, p75) in cases {
            let r = Record::from_samples("t", "ns", samples);
            assert_eq!(
                (r.reps, r.p25, r.median, r.p75),
                (samples.len(), p25, median, p75)
            );
            let json = records_json(&[r]);
            assert!(
                json.contains(&format!("\"value\": {median:.4}, ")),
                "{json}"
            );
            assert!(
                json.contains(&format!("\"median\": {median:.4}, ")),
                "{json}"
            );
        }
    }

    #[test]
    fn records_render_the_unified_schema() {
        let records = [
            Record::from_samples("cached_reads", "blocks_per_s", &[3.0, 2.0, 1.0]).baseline(1.0),
            Record::new("overhead", "percent", 3.25),
        ];
        let json = records_json(&records);
        assert!(json.starts_with("  \"records\": [\n"));
        assert!(json.ends_with("  ]"));
        assert!(json.contains(
            "{\"name\": \"cached_reads\", \"unit\": \"blocks_per_s\", \"value\": 2.0000, \
             \"reps\": 3, \"median\": 2.0000, \"p25\": 1.0000, \"p75\": 3.0000, \
             \"baseline\": 1.0000},"
        ));
        // A computed value is one sample with equal quartiles.
        assert!(json.contains(
            "{\"name\": \"overhead\", \"unit\": \"percent\", \"value\": 3.2500, \
             \"reps\": 1, \"median\": 3.2500, \"p25\": 3.2500, \"p75\": 3.2500}\n"
        ));
        assert_eq!(records_json(&[]), "  \"records\": [\n  ]");
    }

    #[test]
    fn time_reps_returns_one_sample_per_rep_and_series() {
        let mut untimed = 0;
        let [a, b, never] = time_reps(4, |lap| {
            untimed += 1;
            lap.time(0, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            lap.time(1, || ());
            lap.time(0, || ());
        });
        assert_eq!(untimed, 4);
        assert_eq!((a.len(), b.len()), (4, 4));
        assert!(a.iter().all(|&ns| ns >= 2e6), "{a:?}");
        assert_eq!(never, [0.0; 4]);
        assert_eq!(time_each(3, || ()).len(), 3);
        assert_eq!(per_s(10, &[1e9, 2e9]), [10.0, 5.0]);
    }

    #[test]
    fn table_does_not_panic() {
        print_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        print_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
