//! Plain-text table formatting shared by the experiment harness bins.

/// Formats a table with a header row, aligning columns to their widest cell.
///
/// ```
/// use albireo_core::report::format_table;
/// let t = format_table(
///     &["network", "latency"],
///     &[vec!["AlexNet".into(), "0.13 ms".into()]],
/// );
/// assert!(t.contains("AlexNet"));
/// assert!(t.lines().count() >= 3);
/// ```
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity must match headers");
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths.iter()).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<w$}"));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push('\n');
    let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Formats seconds with an adaptive unit (`s`, `ms`, `µs`, `ns`).
pub fn format_seconds(s: f64) -> String {
    let a = s.abs();
    if a >= 1.0 {
        format!("{s:.3} s")
    } else if a >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if a >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Formats joules with an adaptive unit (`J`, `mJ`, `µJ`, `nJ`).
pub fn format_joules(j: f64) -> String {
    let a = j.abs();
    if a >= 1.0 {
        format!("{j:.3} J")
    } else if a >= 1e-3 {
        format!("{:.3} mJ", j * 1e3)
    } else if a >= 1e-6 {
        format!("{:.3} µJ", j * 1e6)
    } else {
        format!("{:.1} nJ", j * 1e9)
    }
}

/// Formats watts with an adaptive unit (`W`, `mW`, `µW`).
pub fn format_watts(w: f64) -> String {
    let a = w.abs();
    if a >= 1.0 {
        format!("{w:.2} W")
    } else if a >= 1e-3 {
        format!("{:.2} mW", w * 1e3)
    } else {
        format!("{:.1} µW", w * 1e6)
    }
}

/// Formats a ratio as the paper's "N X" improvement style.
pub fn format_ratio(r: f64) -> String {
    if r >= 100.0 {
        format!("{r:.0} X")
    } else if r >= 10.0 {
        format!("{r:.1} X")
    } else {
        format!("{r:.2} X")
    }
}

/// Serializes rows to CSV (no quoting; intended for numeric experiment
/// dumps).
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = format_table(
            &["a", "longer"],
            &[
                vec!["xxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_checks_arity() {
        let _ = format_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn second_units() {
        assert_eq!(format_seconds(2.5), "2.500 s");
        assert_eq!(format_seconds(2.5e-3), "2.500 ms");
        assert_eq!(format_seconds(2.5e-6), "2.500 µs");
        assert_eq!(format_seconds(2.5e-9), "2.5 ns");
    }

    #[test]
    fn joule_units() {
        assert_eq!(format_joules(0.0581), "58.100 mJ");
        assert_eq!(format_joules(1.2), "1.200 J");
    }

    #[test]
    fn watt_units() {
        assert_eq!(format_watts(22.7), "22.70 W");
        assert_eq!(format_watts(3.1e-3), "3.10 mW");
        assert_eq!(format_watts(388e-6), "388.0 µW");
    }

    #[test]
    fn ratio_style() {
        assert_eq!(format_ratio(110.3), "110 X");
        assert_eq!(format_ratio(74.2), "74.2 X");
        assert_eq!(format_ratio(1.7), "1.70 X");
    }

    #[test]
    fn csv_round_trip() {
        let csv = to_csv(&["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(csv, "x,y\n1,2\n");
    }
}
