//! Aligned text-table output for experiment results.

use cf_telemetry::json::Value;

use crate::artifacts::{label, select};
use crate::harness::{median, Trace};

/// Prints a titled, aligned table.
///
/// # Examples
///
/// ```
/// cf_bench::tables::print_table(
///     "Table 1",
///     &["System", "1 val"],
///     &[vec!["Cornflakes".into(), "844.7".into()]],
/// );
/// ```
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let s: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(c.len())))
            .collect();
        println!("  {}", s.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Prints the rows of a result tree as a table: `rows` is a [`select`] path
/// to them (`kinds[kind].ops[op]`), the first column
/// is each row's label, and every name in `fields` is one more column.
pub fn print_rows(title: &str, tree: &Value, rows: &str, fields: &[&str]) {
    let columns: Vec<_> = fields
        .iter()
        .map(|f| select(tree, &format!("{rows}.{f}")))
        .collect();
    let cell = |v: Option<&Value>| v.map_or("-".to_string(), label);
    let body: Vec<Vec<String>> = (0..columns[0].len())
        .map(|r| {
            let label = columns[0][r].0.trim_end_matches('.').to_string();
            std::iter::once(label)
                .chain(columns.iter().map(|c| cell(c[r].1)))
                .collect()
        })
        .collect();
    let headers: Vec<&str> = std::iter::once(rows)
        .chain(fields.iter().copied())
        .collect();
    print_table(title, &headers, &body);
}

/// Prints `name`'s throughput-latency curve ([`Trace::points`]), one line
/// per offered load.
pub fn print_curve(name: &str, points: &[(f64, f64)]) {
    println!("  curve [{name}]:");
    for (rps, p99_ns) in points {
        println!(
            "    offered {:8.1} krps  p99 {:6.1} us",
            rps / 1e3,
            p99_ns / 1e3
        );
    }
}

/// Prints a curve figure: per system its capacity and its rates at the p99
/// `slo_ns` ([`Trace::rps_at_p99_slo`]) as the median and min–max over the
/// arrival seeds, then `label`'s paper value against the gain of system
/// `ours` over system `base` at the SLO (medians), then every system's curve.
pub fn print_slo_figure(
    title: &str,
    column: &str,
    slo_ns: u64,
    systems: &[(&str, Trace)],
    (label, paper, ours, base): (&str, &str, usize, usize),
) {
    let at_slo: Vec<Vec<f64>> = systems
        .iter()
        .map(|(_, trace)| trace.rps_at_p99_slo(slo_ns))
        .collect();
    let rows: Vec<Vec<String>> = systems
        .iter()
        .zip(&at_slo)
        .map(|((name, trace), at_slo)| {
            vec![name.to_string(), f1(trace.rps() / 1e3), krps_spread(at_slo)]
        })
        .collect();
    let slo = format!("krps @ p99<={}us (median, min-max)", slo_ns / 1000);
    print_table(title, &[column, "Max krps", &slo], &rows);
    let (ours, base) = (median(&at_slo[ours]), median(&at_slo[base]));
    print_expectation(label, paper, &pct((ours - base) / base * 100.0));
    for (name, trace) in systems {
        print_curve(name, &trace.points());
    }
}

/// Formats ascending rates (requests/s) as krps: their median, then their
/// min–max in brackets.
pub fn krps_spread(sorted_rps: &[f64]) -> String {
    let krps = |rps: Option<&f64>| f1(rps.copied().unwrap_or(0.0) / 1e3);
    format!(
        "{} ({}-{})",
        f1(median(sorted_rps) / 1e3),
        krps(sorted_rps.first()),
        krps(sorted_rps.last())
    )
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a percent difference with sign.
pub fn pct(x: f64) -> String {
    format!("{x:+.1}%")
}

/// Prints the paper-vs-measured comparison line that each experiment ends
/// with.
pub fn print_expectation(label: &str, paper: &str, measured: &str) {
    println!("  [paper] {label}: {paper}");
    println!("  [measured] {label}: {measured}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(15.44), "15.4");
        assert_eq!(pct(15.4), "+15.4%");
        assert_eq!(pct(-3.2), "-3.2%");
        assert_eq!(krps_spread(&[1e5, 2e5, 4e5]), "200.0 (100.0-400.0)");
    }

    #[test]
    fn print_does_not_panic() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["x".into(), "longer".into()], vec!["yy".into()]],
        );
        print_expectation("thing", "1", "2");
    }
}
