//! A run's metrics, the one-line JSON result, and the benchmark's own
//! metric specification (`BENCHMARK.json` at the repository root).

use serde::Value;

/// The metric specification every run is checked against.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// Whether `name` is a usable metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (registry entries run, requests sent).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Checked artifacts whose bytes differ from the expected bytes.
    pub mismatches: u64,
    /// Every metric, in emission order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// On an invalid or duplicate name: both are bugs in this crate.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name {name:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name:?} emitted twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result the run prints last.
    pub fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("the vendored JSON writer is total")
    }
}

/// A parsed JSON document (the vendored serde has no `Deserialize` for
/// its own value tree).
struct Json(Value);

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

/// Parses JSON text into a value tree.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// Looks up `key` in a JSON object.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// A JSON number as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// The value of metric `name` in a result line's `metrics` object.
pub fn metric_value(metrics: &Value, name: &str) -> Option<f64> {
    get(get(metrics, name)?, "value").and_then(num)
}

/// One metric as a run prints it: name, value, unit and sample count.
pub fn metric_line(name: &str, value: f64, unit: &str, samples: usize) -> String {
    format!("  {name:<30} {value:>16.6} {unit:<6} n={samples}")
}

/// A JSON string.
pub fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Declared unit.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The declared workloads, end-to-end metrics and per-layer metrics.
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (the untraced pass).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (the traced pass).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// When the file is malformed: it is part of this benchmark.
    pub fn load() -> Spec {
        let root = parse(SPEC_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Value> {
            get(&root, key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key:?}"))
                .to_vec()
        };
        let field = |v: &Value, key: &str| -> String {
            get(v, key)
                .and_then(text)
                .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks {key:?}"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            list(key)
                .iter()
                .map(|m| MetricSpec {
                    name: field(m, "name"),
                    unit: field(m, "unit"),
                    higher_is_better: field(m, "better") == "higher",
                    bound: get(m, "bound").and_then(num),
                })
                .collect()
        };
        Spec {
            workloads: list("workloads").iter().map(|w| field(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// Problems with a pass's result against the specification (the
    /// untraced pass emits the end-to-end metrics, the traced pass the
    /// per-layer ones): a missing, non-finite, unit-mismatched or
    /// undeclared metric.
    pub fn problems(&self, traced: bool, metrics: &Value) -> Vec<String> {
        let declared = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = Vec::new();
        for m in declared {
            let got = get(metrics, &m.name);
            match metric_value(metrics, &m.name) {
                None => out.push(format!("metric {} missing", m.name)),
                Some(v) if !v.is_finite() => out.push(format!("metric {} = {v}", m.name)),
                Some(_) => {}
            }
            let unit = got.and_then(|g| get(g, "unit")).and_then(text);
            if got.is_some() && unit != Some(m.unit.as_str()) {
                out.push(format!(
                    "metric {} unit {unit:?}, declared {}",
                    m.name, m.unit
                ));
            }
        }
        for (name, _) in metrics.as_object().unwrap_or(&[]) {
            if declared.iter().all(|m| &m.name != name) {
                out.push(format!("metric {name} is not declared"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "setup_s",
            "pdn.ns_per_step",
            "analysis.drawer-prop_s",
            "9lives",
            &"x".repeat(64),
        ] {
            assert!(valid_metric_name(ok), "{ok:?}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "ünïcode",
            "quote\"",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn declared_metrics_have_valid_names_units_and_bounds() {
        let spec = Spec::load();
        assert!(spec.workloads.len() >= 2);
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_metric_name(&m.name), "{}", m.name);
            assert!(!m.unit.is_empty());
        }
        let bound = |m: &MetricSpec| m.bound.expect("end-to-end metrics carry a bound");
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        for m in &spec.end_to_end {
            assert!(bound(m) > 0.0 && bound(m) <= 0.25, "{}", m.name);
            assert!(bound(m) <= bound(setup), "{} outbounds setup_s", m.name);
        }
    }

    #[test]
    fn result_line_round_trips_and_flags_problems() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.push("setup_s", 0.25, "s", 5);
        let line = parse(&r.to_json_line()).unwrap();
        assert_eq!(get(&line, "correct"), Some(&Value::Bool(true)));
        let metrics = get(&line, "metrics").unwrap();
        assert_eq!(
            get(get(metrics, "setup_s").unwrap(), "value").and_then(num),
            Some(0.25)
        );
        let problems = Spec::load().problems(false, metrics);
        assert!(
            problems.iter().any(|p| p.contains("missing")),
            "{problems:?}"
        );
        r.mismatches = 1;
        assert!(!r.correct());
    }
}
