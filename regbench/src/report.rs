//! The run report: metrics, the run fingerprint, and report comparison.

use regpipe_exec::json::Value;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value: as measured, or for a timing of `--trace 0`, taken at
    /// the reference host's speed.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Everything one invocation measured and checked.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload configuration: part of the fingerprint.
    pub config: Vec<(String, Value)>,
    /// Exact work counters: part of the fingerprint.
    pub work: Vec<(&'static str, u64)>,
    /// Host identity.
    pub host: Vec<(&'static str, String)>,
    /// Sample sizes and choices behind the metrics (not compared).
    pub samples: Vec<(&'static str, Value)>,
    /// The metrics of this mode (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Distinct ops checked.
    pub attempted: u64,
    /// Ops that failed a check or returned an error.
    pub failures: Vec<String>,
}

impl Report {
    /// Ops that failed, counting a failure of a whole round or pass as
    /// one op and never more than the ops attempted.
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    fn metrics_value(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    let value = Value::finite(m.value).unwrap_or(Value::Null);
                    let pair = vec![
                        ("value".to_string(), value),
                        ("unit".to_string(), Value::Str(m.unit.into())),
                    ];
                    (m.name.to_string(), Value::Object(pair))
                })
                .collect(),
        )
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary(&self) -> String {
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::uint(self.attempted)),
            ("failed".into(), Value::uint(self.failed())),
            ("metrics".into(), self.metrics_value()),
        ])
        .render()
    }

    /// The full report, fingerprint included.
    pub fn to_json(&self) -> Value {
        let strings = |pairs: &[(&'static str, String)]| {
            Value::Object(
                pairs.iter().map(|(k, v)| (k.to_string(), Value::Str(v.clone()))).collect(),
            )
        };
        Value::Object(vec![
            ("schema".into(), Value::Str("regbench-report/v1".into())),
            ("config".into(), Value::Object(self.config.clone())),
            (
                "work".into(),
                Value::Object(
                    self.work.iter().map(|(k, v)| (k.to_string(), Value::uint(*v))).collect(),
                ),
            ),
            ("host".into(), strings(&self.host)),
            (
                "samples".into(),
                Value::Object(
                    self.samples.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
                ),
            ),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::uint(self.attempted)),
            ("failed".into(), Value::uint(self.failed())),
            (
                "failures".into(),
                Value::Array(
                    self.failures.iter().take(20).map(|f| Value::Str(f.clone())).collect(),
                ),
            ),
            ("metrics".into(), self.metrics_value()),
        ])
    }
}

/// Compares two reports' metrics, refusing when they did not do the same
/// work: their workload configurations or exact work counters differ.
///
/// # Errors
///
/// A message naming every differing fingerprint field.
pub fn compare(before: &Value, after: &Value) -> Result<String, String> {
    let mut diffs = Vec::new();
    for section in ["config", "work"] {
        let (a, b) = (before.get(section), after.get(section));
        let (Some(Value::Object(a)), Some(Value::Object(b))) = (a, b) else {
            return Err(format!("a report has no '{section}' object"));
        };
        for (key, value) in a {
            let other = b.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            if other != Some(value) {
                let other = other.map_or_else(|| "missing".to_string(), Value::render);
                diffs.push(format!("{section}.{key}: {} vs {other}", value.render()));
            }
        }
        for (key, _) in b.iter().filter(|(k, _)| !a.iter().any(|(ka, _)| ka == k)) {
            diffs.push(format!("{section}.{key}: missing vs present"));
        }
    }
    if !diffs.is_empty() {
        return Err(format!(
            "refusing to compare runs that did different work:\n  {}",
            diffs.join("\n  ")
        ));
    }
    let (Some(Value::Object(a)), Some(Value::Object(b))) =
        (before.get("metrics"), after.get("metrics"))
    else {
        return Err("a report has no 'metrics' object".into());
    };
    let mut out =
        format!("{:<28} {:>14} {:>14} {:>9}\n", "metric", "before", "after", "change");
    for (name, m) in a {
        let value = |m: &Value| m.get("value").and_then(Value::as_f64);
        let Some(after) = b.iter().find(|(k, _)| k == name).and_then(|(_, v)| value(v)) else {
            continue;
        };
        let before = value(m).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        let change = if before != 0.0 {
            format!("{:+.1}%", (after / before - 1.0) * 100.0)
        } else {
            "-".into()
        };
        out.push_str(&format!(
            "{:<28} {:>14.4} {:>14.4} {:>9} {unit}\n",
            name, before, after, change
        ));
    }
    Ok(out)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The nearest-rank `p`-th percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
