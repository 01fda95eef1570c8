//! `perfgate` — loose performance gates for CI, driven by one manifest.
//!
//! Checks a freshly measured probe line (from `perfsmoke` or `perfscale`)
//! against the rules of the checked-in `BENCH.json` manifest:
//!
//! ```text
//! perfgate <fresh.json> BENCH.json
//! ```
//!
//! Every manifest rule names the probe line it applies to (matched against
//! the fresh line's `bench` field), a key — or a one-star pattern such as
//! `decision_curve_*_decisions_per_sec` — and one of four rule kinds, each
//! evaluated over the key-sorted values the key selects on the fresh line:
//!
//! * `floor` — every value ≥ `baseline / 5`. The 5× headroom makes a floor
//!   a regression tripwire (an accidental return to a linear or allocating
//!   path shows up as 10–100×), not a flakiness source on busy CI hosts.
//! * `min` — every value ≥ `bound` (the open/closed serving ratio, the
//!   dormant-econ throughput ratio).
//! * `spread` — max/min ≤ `bound` (the decisions/s-vs-depth curve: a
//!   decision loop that regressed to O(queue) spreads 10–40×).
//! * `growth` — last/first ≤ `bound` (per-window live bytes: a serving
//!   loop that re-grew whole-run state ramps 10×+ across the stream).
//!
//! A rule whose key selects nothing on the fresh line fails — a probe that
//! stops emitting a key must not silently lose its gate — and so do an
//! unknown rule kind and a line no rule applies to. Exits non-zero on any
//! failure.

use std::process::ExitCode;

use serde_json::{Map, Value};

/// Floors hold `fresh >= baseline / HEADROOM`.
const HEADROOM: f64 = 5.0;

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perfgate: cannot read {path}: {e}"));
    serde_json::from_str_value(&text).unwrap_or_else(|e| panic!("perfgate: {path}: {e:?}"))
}

/// `pattern` is an exact key, or `prefix*suffix`.
fn matches(pattern: &str, key: &str) -> bool {
    match pattern.split_once('*') {
        Some((pre, suf)) => {
            key.len() >= pre.len() + suf.len() && key.starts_with(pre) && key.ends_with(suf)
        }
        None => key == pattern,
    }
}

/// Evaluates one manifest rule on a fresh line: `Ok` passes, `Err` fails,
/// and both carry the verdict text.
fn check(rule: &Value, fresh: &Map) -> Result<String, String> {
    let key = rule.get("key").and_then(Value::as_str).unwrap_or("<no key>");
    let kind = rule.get("rule").and_then(Value::as_str).unwrap_or("<no rule>");
    let number = |field: &str| {
        rule.get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{kind} {key}: rule has no numeric `{field}`"))
    };
    let mut series: Vec<(&String, f64)> = fresh
        .iter()
        .filter(|(k, _)| matches(key, k))
        .filter_map(|(k, v)| v.as_f64().map(|f| (k, f)))
        .collect();
    series.sort_by(|a, b| a.0.cmp(b.0));
    if series.is_empty() {
        return Err(format!("{kind} {key}: missing from the fresh line"));
    }
    let lo = series.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
    let hi = series.iter().map(|s| s.1).fold(f64::NEG_INFINITY, f64::max);
    let (first, last) = (series[0], series[series.len() - 1]);
    let (ok, text) = match kind {
        "floor" => {
            let base = number("baseline")?;
            let floor = base / HEADROOM;
            let text = format!("{lo:.3e} vs floor {floor:.3e} (baseline {base:.3e} / {HEADROOM}x)");
            (lo >= floor, text)
        }
        "min" => {
            let bound = number("bound")?;
            (lo >= bound, format!("{lo:.3} (need >= {bound})"))
        }
        "spread" | "growth" if series.len() < 2 => {
            return Err(format!("{kind} {key}: needs >= 2 keys, fresh line has {}", series.len()));
        }
        "spread" => {
            let bound = number("bound")?;
            let ratio = hi / lo;
            let text = format!("max/min {ratio:.2} (bound {bound}) over {} keys", series.len());
            (ratio <= bound, text)
        }
        "growth" => {
            let bound = number("bound")?;
            let ratio = last.1 / first.1;
            (ratio <= bound, format!("{} = {ratio:.2}x {} (bound {bound}x)", last.0, first.0))
        }
        _ => return Err(format!("{kind} {key}: unknown rule kind")),
    };
    let text = format!("{kind} {key}: {text}");
    if ok {
        Ok(text)
    } else {
        Err(text)
    }
}

/// Runs every manifest rule for the fresh line's probe, printing one
/// verdict per rule. Returns `(rules checked, rules failed)`; a line no
/// rule applies to counts as one failure.
fn gate(manifest: &Value, fresh: &Map) -> (usize, usize) {
    let line = fresh.get("bench").and_then(Value::as_str).unwrap_or("<no bench field>");
    let rules: Vec<&Value> = manifest
        .get("rules")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter(|r| r.get("line").and_then(Value::as_str) == Some(line))
        .collect();
    if rules.is_empty() {
        println!("FAIL no manifest rules for probe line {line:?}");
        return (0, 1);
    }
    let mut failed = 0;
    for rule in &rules {
        match check(rule, fresh) {
            Ok(text) => println!("ok   {text}"),
            Err(text) => {
                failed += 1;
                println!("FAIL {text}");
            }
        }
    }
    (rules.len(), failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [fresh_path, manifest_path] = args.as_slice() else {
        eprintln!("usage: perfgate <fresh.json> BENCH.json");
        return ExitCode::FAILURE;
    };
    let Value::Object(fresh) = load(fresh_path) else {
        panic!("perfgate: {fresh_path} is not a JSON object");
    };
    let (checked, failed) = gate(&load(manifest_path), &fresh);
    println!("perfgate: {checked} rules checked, {failed} broken");
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn line(pairs: &[(&str, f64)]) -> Map {
        let mut m = Map::new();
        m.insert("bench".into(), json!("perfsmoke"));
        for (k, v) in pairs {
            m.insert((*k).into(), json!(*v));
        }
        m
    }

    fn rule(key: &str, kind: &str, field: &str, value: f64) -> Value {
        let mut r = Map::new();
        r.insert("line".into(), json!("perfsmoke"));
        r.insert("key".into(), json!(key));
        r.insert("rule".into(), json!(kind));
        r.insert(field.into(), json!(value));
        Value::Object(r)
    }

    #[test]
    fn floor_allows_five_x_headroom_and_no_more() {
        let r = rule("x_per_sec", "floor", "baseline", 100.0);
        assert!(check(&r, &line(&[("x_per_sec", 20.0)])).is_ok());
        assert!(check(&r, &line(&[("x_per_sec", 19.9)])).is_err());
    }

    #[test]
    fn min_holds_the_bound() {
        let r = rule("ratio", "min", "bound", 0.95);
        assert!(check(&r, &line(&[("ratio", 0.95)])).is_ok());
        assert!(check(&r, &line(&[("ratio", 0.949)])).is_err());
    }

    #[test]
    fn spread_bounds_max_over_min_of_the_pattern() {
        let r = rule("curve_*_per_sec", "spread", "bound", 3.0);
        let flat = line(&[
            ("curve_d50k_per_sec", 10.0),
            ("curve_d200k_per_sec", 29.0),
            ("curve_d50k_depth", 1.0),
        ]);
        assert!(check(&r, &flat).is_ok(), "non-matching keys stay out of the series");
        let steep = line(&[("curve_d50k_per_sec", 10.0), ("curve_d200k_per_sec", 31.0)]);
        assert!(check(&r, &steep).is_err());
        let point = line(&[("curve_d50k_per_sec", 10.0)]);
        assert!(check(&r, &point).is_err(), "one point is no curve");
    }

    #[test]
    fn growth_bounds_last_over_first_in_key_order() {
        let r = rule("mem_w*_bytes", "growth", "bound", 1.5);
        // Insertion order reads 40 -> 99 (2.5x); key order reads 100 -> 99.
        let flat =
            line(&[("mem_w04_bytes", 40.0), ("mem_w03_bytes", 100.0), ("mem_w11_bytes", 99.0)]);
        assert!(check(&r, &flat).is_ok(), "series compare in key order");
        let ramp = line(&[("mem_w03_bytes", 100.0), ("mem_w11_bytes", 151.0)]);
        assert!(check(&r, &ramp).is_err());
        let shrink = line(&[("mem_w03_bytes", 300.0), ("mem_w11_bytes", 100.0)]);
        assert!(check(&r, &shrink).is_ok(), "growth is one-sided");
    }

    #[test]
    fn missing_key_fails() {
        let r = rule("x_per_sec", "floor", "baseline", 100.0);
        assert!(check(&r, &line(&[("y_per_sec", 1e9)])).is_err());
    }

    #[test]
    fn unknown_rule_kind_fails() {
        let r = rule("x_per_sec", "ceiling", "bound", 100.0);
        assert!(check(&r, &line(&[("x_per_sec", 1.0)])).is_err());
    }

    #[test]
    fn a_line_without_rules_fails() {
        let manifest = json!({ "rules": vec![rule("x", "min", "bound", 0.0)] });
        let mut fresh = line(&[("x", 1.0)]);
        assert_eq!(gate(&manifest, &fresh), (1, 0));
        fresh.insert("bench".into(), json!("perfscale-e2e"));
        assert_eq!(gate(&manifest, &fresh), (0, 1));
    }

    fn manifest() -> Value {
        let text = include_str!("../../../../BENCH.json");
        serde_json::from_str_value(text).expect("BENCH.json parses")
    }

    fn recorded(manifest: &Value, probe: &str) -> Map {
        match manifest.get("recorded").and_then(|r| r.get(probe)) {
            Some(Value::Object(m)) => m.clone(),
            _ => panic!("BENCH.json has no recorded {probe} line"),
        }
    }

    /// The checked-in reference lines pass every manifest rule, with the
    /// depth curve held to the tighter 2x a full-mode record must meet.
    #[test]
    fn recorded_lines_pass_their_own_manifest() {
        let manifest = manifest();
        let rules: Vec<Value> = manifest["rules"]
            .as_array()
            .expect("BENCH.json has a rules array")
            .iter()
            .cloned()
            .map(|mut r| {
                if let Value::Object(m) = &mut r {
                    if m.get("rule").and_then(Value::as_str) == Some("spread") {
                        m.insert("bound".into(), json!(2.0));
                    }
                }
                r
            })
            .collect();
        for kind in ["floor", "min", "spread", "growth"] {
            assert!(rules.iter().any(|r| r["rule"].as_str() == Some(kind)), "no {kind} rule");
        }
        let n = rules.len();
        let tightened = json!({ "rules": rules });
        let (smoke, scale) = (recorded(&manifest, "perfsmoke"), recorded(&manifest, "perfscale"));
        let (c1, f1) = gate(&tightened, &smoke);
        let (c2, f2) = gate(&tightened, &scale);
        assert_eq!((c1 + c2, f1 + f2), (n, 0), "every rule checked once, none broken");
    }

    #[test]
    fn dropping_any_gated_key_from_a_recorded_line_fails_the_gate() {
        let manifest = manifest();
        for probe in ["perfsmoke", "perfscale"] {
            let full = recorded(&manifest, probe);
            assert_eq!(gate(&manifest, &full).1, 0);
            let rules = manifest["rules"].as_array().expect("rules");
            for r in rules.iter().filter(|r| r["line"].as_str() == Some(probe)) {
                let pattern = r["key"].as_str().expect("key");
                let mut cut = full.clone();
                let gone: Vec<String> =
                    full.keys().filter(|k| matches(pattern, k)).cloned().collect();
                for k in &gone {
                    cut.remove(k);
                }
                assert!(gate(&manifest, &cut).1 > 0, "{probe} without {pattern} must fail");
            }
        }
    }
}
