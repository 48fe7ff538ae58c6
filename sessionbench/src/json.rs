//! The benchmark's result line: one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (name → `{value, unit}`).
//!
//! Floats print with every significant digit (Rust's shortest
//! round-trip form), switching to scientific notation below 1e-4 so a
//! tiny value never prints as `0.000000`.

/// Formats a finite float so it parses back to the same `f64`.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    if v != 0.0 && v.abs() < 1e-4 {
        format!("{v:e}")
    } else {
        format!("{v}")
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Renders the result line. Metrics keep the order given.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip_and_tiny_values_use_exponents() {
        for v in [1.2034, 0.1 + 0.2, 123456.789, 3.0e-7, -2.5e-9, 0.0, 1e300] {
            let s = number(v);
            assert_eq!(s.parse::<f64>().unwrap(), v, "{s}");
        }
        assert_eq!(number(3.0e-7), "3e-7");
        assert_eq!(number(0.25), "0.25");
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "a.b",
                value: 1.5,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"a.b": {"value": 1.5, "unit": "ms"}}}"#
        );
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("rf.ray_cache_hit_ratio"));
        assert!(valid_name("session_p50_ms"));
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
    }
}
