//! Prometheus text-format export of a [`MetricsSnapshot`], plus a small
//! validating parser used by tests and `aaltune top --check`.
//!
//! The exposition format is the 0.0.4 text format: `# TYPE` comments,
//! `name{labels} value` samples, names matching `[a-zA-Z_:][a-zA-Z0-9_:]*`.
//! Internal metric names are dotted (`exec.workers.busy.now`); export
//! sanitizes them by mapping every non-conforming byte to `_` and prefixing
//! [`METRIC_PREFIX`], so `measure.retry` becomes `aaltune_measure_retry`.
//!
//! Histograms export as Prometheus *summaries*: quantile-labelled samples
//! from [`Histogram::quantile`] plus `_sum` and `_count`. Labels export as
//! an info-style gauge (`aaltune_label{name="...", value="..."} 1`).

use crate::metrics::Histogram;
use crate::registry::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Prefix for every exported metric name, namespacing the exposition.
pub const METRIC_PREFIX: &str = "aaltune_";

/// Quantiles exported for each histogram-backed summary.
const SUMMARY_QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 1.0];

/// Maps an internal dotted metric name to a valid Prometheus name:
/// non-`[a-zA-Z0-9_:]` bytes become `_`, a leading digit gains a `_`
/// prefix, and [`METRIC_PREFIX`] is prepended.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(METRIC_PREFIX.len() + name.len());
    out.push_str(METRIC_PREFIX);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn emit_summary(out: &mut String, name: &str, hist: &Histogram) {
    let _ = writeln!(out, "# TYPE {name} summary");
    for q in SUMMARY_QUANTILES {
        let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {}", fmt_value(hist.quantile(q)));
    }
    let _ = writeln!(out, "{name}_sum {}", fmt_value(hist.sum()));
    let _ = writeln!(out, "{name}_count {}", hist.count());
}

/// Renders `snap` in the Prometheus text exposition format.
///
/// Distinct internal names can sanitize to the same exported name (or a
/// counter and a gauge can share one); later duplicates are dropped with a
/// `# skipped` comment rather than emitting an invalid exposition.
#[must_use]
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut taken: BTreeMap<String, ()> = BTreeMap::new();
    fn claim(
        taken: &mut BTreeMap<String, ()>,
        out: &mut String,
        name: &str,
        internal: &str,
    ) -> bool {
        if taken.insert(name.to_string(), ()).is_some() {
            let _ = writeln!(out, "# skipped duplicate exported name for {internal:?}");
            false
        } else {
            true
        }
    }

    let _ = writeln!(out, "# aaltune metrics snapshot, schema v{}", snap.schema_version);
    let uptime = sanitize_name("uptime_seconds");
    let _ = writeln!(out, "# TYPE {uptime} gauge");
    #[allow(clippy::cast_precision_loss)]
    let up_s = snap.uptime_us as f64 / 1e6;
    let _ = writeln!(out, "{uptime} {}", fmt_value(up_s));
    taken.insert(uptime, ());
    let hb = sanitize_name("snapshot_unix_ms");
    let _ = writeln!(out, "# TYPE {hb} gauge");
    let _ = writeln!(out, "{hb} {}", snap.unix_ms);
    taken.insert(hb, ());

    for (name, value) in &snap.counters {
        let n = sanitize_name(name);
        if claim(&mut taken, &mut out, &n, name) {
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {value}");
        }
    }
    for (name, value) in &snap.gauges {
        let n = sanitize_name(name);
        if claim(&mut taken, &mut out, &n, name) {
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {}", fmt_value(*value));
        }
    }
    for (name, hist) in &snap.histograms {
        let n = sanitize_name(name);
        // A summary also claims its _sum/_count derivatives.
        let claimed = claim(&mut taken, &mut out, &n, name)
            && claim(&mut taken, &mut out, &format!("{n}_sum"), name)
            && claim(&mut taken, &mut out, &format!("{n}_count"), name);
        if claimed {
            emit_summary(&mut out, &n, hist);
        }
    }
    for (name, value) in &snap.labels {
        let _ = writeln!(
            out,
            "{}label{{name=\"{}\",value=\"{}\"}} 1",
            METRIC_PREFIX,
            escape_label(name),
            escape_label(value)
        );
    }
    out
}

/// One parsed sample line from a Prometheus exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (without labels).
    pub name: String,
    /// Raw label block, `""` when absent.
    pub labels: String,
    /// Sample value.
    pub value: f64,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses (and thereby validates) a Prometheus text exposition.
///
/// Accepts the subset [`to_prometheus`] emits: `# ...` comment lines, blank
/// lines, and `name[{labels}] value` samples. Returns every sample in file
/// order.
///
/// # Errors
///
/// Returns a message naming the first malformed line: an invalid metric
/// name, an unterminated label block, or an unparsable value.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, labels, rest) = if let Some(open) = line.find('{') {
            // The closing brace is the first `}` *outside* a quoted label
            // value: values may legally contain `{`/`}` unescaped.
            let mut close = None;
            let mut in_quotes = false;
            let mut escaped = false;
            for (i, c) in line[open + 1..].char_indices() {
                match c {
                    _ if escaped => escaped = false,
                    '\\' if in_quotes => escaped = true,
                    '"' => in_quotes = !in_quotes,
                    '}' if !in_quotes => {
                        close = Some(open + 1 + i);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(close) = close else {
                return Err(format!("line {}: unterminated label block: {raw:?}", lineno + 1));
            };
            (&line[..open], line[open + 1..close].to_string(), line[close + 1..].trim())
        } else {
            let Some(sp) = line.find(char::is_whitespace) else {
                return Err(format!("line {}: no value: {raw:?}", lineno + 1));
            };
            (&line[..sp], String::new(), line[sp..].trim())
        };
        if !valid_name(name_part) {
            return Err(format!("line {}: invalid metric name {name_part:?}", lineno + 1));
        }
        // Value is the first whitespace token after the name/labels; an
        // optional timestamp may follow per the exposition format.
        let value_tok = rest.split_whitespace().next().unwrap_or("");
        let value = match value_tok {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            tok => {
                tok.parse::<f64>().map_err(|_| format!("line {}: bad value {tok:?}", lineno + 1))?
            }
        };
        samples.push(PromSample { name: name_part.to_string(), labels, value });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize_name("measure.retry"), "aaltune_measure_retry");
        assert_eq!(sanitize_name("exec.device.0.busy_us"), "aaltune_exec_device_0_busy_us");
        assert_eq!(sanitize_name("9lives"), "aaltune__9lives");
        assert_eq!(sanitize_name("task.m.T1/relu best"), "aaltune_task_m_T1_relu_best");
    }

    #[test]
    fn export_round_trips_every_metric() {
        let reg = MetricsRegistry::new();
        reg.inc("tune.trials", 42);
        reg.inc("measure.retry", 3);
        reg.gauge_set("exec.queue.build.depth.now", 5.0);
        reg.gauge_set("neg", -2.5);
        for i in 1..=10 {
            reg.observe("trial.gflops", f64::from(i) * 10.0);
        }
        reg.set_label("task.current", "m.T1");
        let snap = reg.snapshot();
        let text = to_prometheus(&snap);
        let samples = parse_prometheus(&text).unwrap();

        let find =
            |n: &str| samples.iter().find(|s| s.name == n && s.labels.is_empty()).map(|s| s.value);
        assert_eq!(find("aaltune_tune_trials"), Some(42.0));
        assert_eq!(find("aaltune_measure_retry"), Some(3.0));
        assert_eq!(find("aaltune_exec_queue_build_depth_now"), Some(5.0));
        assert_eq!(find("aaltune_neg"), Some(-2.5));
        assert_eq!(find("aaltune_trial_gflops_count"), Some(10.0));
        assert!(find("aaltune_trial_gflops_sum").unwrap() > 0.0);
        assert!(samples
            .iter()
            .any(|s| s.name == "aaltune_trial_gflops" && s.labels.contains("quantile=\"0.5\"")));
        assert!(samples.iter().any(|s| s.name == "aaltune_label" && s.labels.contains("m.T1")));
        assert!(find("aaltune_uptime_seconds").is_some());
        assert!(find("aaltune_snapshot_unix_ms").unwrap() > 0.0);
    }

    #[test]
    fn colliding_exported_names_are_skipped_not_duplicated() {
        let reg = MetricsRegistry::new();
        reg.inc("a.b", 1);
        reg.gauge_set("a_b", 2.0); // sanitizes to the same exported name
        let text = to_prometheus(&reg.snapshot());
        let samples = parse_prometheus(&text).unwrap();
        let hits: Vec<_> = samples.iter().filter(|s| s.name == "aaltune_a_b").collect();
        assert_eq!(hits.len(), 1, "duplicate exported name must be dropped: {text}");
        assert!(text.contains("# skipped duplicate"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("ok_metric 1\n").is_ok());
        assert!(parse_prometheus("bad-name 1\n").is_err());
        assert!(parse_prometheus("no_value\n").is_err());
        assert!(parse_prometheus("unterminated{quantile=\"0.5\" 1\n").is_err());
        assert!(parse_prometheus("bad_value x\n").is_err());
        assert!(parse_prometheus("# just a comment\n\n").unwrap().is_empty());
        let inf = parse_prometheus("m{quantile=\"1\"} +Inf\n").unwrap();
        assert!(inf[0].value.is_infinite());
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.set_label("weird", "a\"b\\c\nd");
        let text = to_prometheus(&reg.snapshot());
        assert!(text.contains("value=\"a\\\"b\\\\c\\nd\""));
        parse_prometheus(&text).unwrap();
    }

    #[test]
    fn hostile_metric_names_still_export_validly() {
        // Anything a task name can smuggle into a metric name — unicode,
        // spaces, braces, quotes, an empty string — must sanitize to a
        // parseable exposition, never an invalid line.
        let reg = MetricsRegistry::new();
        reg.inc("tâche.μ/relu é", 1);
        reg.inc("", 2);
        reg.gauge_set("a{b=\"c\"} 1\n# sneaky", 3.0);
        reg.gauge_set("0.force.leading.digit", 4.0);
        let text = to_prometheus(&reg.snapshot());
        let samples = parse_prometheus(&text).expect("sanitized export must parse");
        assert_eq!(sanitize_name(""), "aaltune_");
        let find = |n: String| samples.iter().find(|s| s.name == n).map(|s| s.value);
        assert_eq!(find(sanitize_name("tâche.μ/relu é")), Some(1.0));
        assert_eq!(find(sanitize_name("")), Some(2.0));
        assert_eq!(find(sanitize_name("a{b=\"c\"} 1\n# sneaky")), Some(3.0));
        assert_eq!(find(sanitize_name("0.force.leading.digit")), Some(4.0));
        assert_eq!(sanitize_name("0.x"), "aaltune__0_x", "leading digit gains an underscore");
    }

    #[test]
    fn hostile_label_names_and_values_round_trip() {
        let reg = MetricsRegistry::new();
        reg.set_label("task \"naïve\"\n", "π={3,14}\\\"");
        let text = to_prometheus(&reg.snapshot());
        let samples = parse_prometheus(&text).expect("escaped labels must parse");
        let label = samples.iter().find(|s| s.name == "aaltune_label").unwrap();
        // The newline and quotes are escaped inside the label block — the
        // exposition stays one line per sample.
        assert!(label.labels.contains("task \\\"naïve\\\"\\n"), "{}", label.labels);
        assert!(label.labels.contains("π={3,14}\\\\\\\""), "{}", label.labels);
    }
}
