//! The writer for `BENCH_simnet.json`: the wall-clock trajectory of the
//! paper-scale fleet replay (`repro fleet`), one row per fleet size.
//! Rendering is deterministic (fixed field order, fixed float precision),
//! and [`validate`] parses the document back against the schema.

use std::fmt::Write as _;

use serde_json::Value;

/// Where the trajectory file lives (repo root; `repro` runs from there).
pub const PATH: &str = "BENCH_simnet.json";

/// One `"runs"` row: a paper-scale diurnal replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRow {
    /// Fleet label (`1k` / `5k` / `20k` / `50k` / `100k`).
    pub fleet: String,
    /// Node count.
    pub nodes: u64,
    /// Events processed (virtual; deterministic).
    pub events: u64,
    /// Wall-clock run time in milliseconds (machine-dependent).
    pub wall_ms: f64,
    /// Wall-clock throughput (machine-dependent).
    pub events_per_sec: f64,
    /// Config writes committed during the replay.
    pub writes: u64,
    /// Proxy cache applications (notify deliveries that landed).
    pub proxy_updates: u64,
    /// Number of raw propagation samples behind the percentile table (one
    /// per (write, proxy) landing). Makes tables at different fleet sizes
    /// comparable: rank-interpolated percentiles from 131 samples and from
    /// 13 million are both honest once the count is printed next to them.
    pub samples: u64,
    /// Propagation-delay distribution in milliseconds of virtual time
    /// (deterministic): p50, p90, p99, p999, max — rank-interpolated from
    /// the raw sample series, not bucketed.
    pub propagation_ms: [f64; 5],
    /// Per-subsystem (actor kind) share of handler wall time, descending
    /// (machine-dependent).
    pub subsystem_wall_shares: Vec<(String, f64)>,
}

fn fmt_f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Renders the whole document.
pub fn render(runs: &[FleetRow]) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"simnet_events_per_sec\",\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let shares: Vec<String> = r
            .subsystem_wall_shares
            .iter()
            .map(|(k, s)| format!("        \"{k}\": {}", fmt_f(*s, 4)))
            .collect();
        let _ = write!(
            out,
            "    {{\n      \"fleet\": \"{}\",\n      \"nodes\": {},\n      \"events\": {},\n      \"events_per_sec\": {},\n      \"wall_ms\": {},\n      \"writes\": {},\n      \"proxy_updates\": {},\n      \"samples\": {},\n      \"propagation_ms\": {{\n        \"p50\": {},\n        \"p90\": {},\n        \"p99\": {},\n        \"p999\": {},\n        \"max\": {}\n      }},\n      \"subsystem_wall_shares\": {{\n{}\n      }}\n    }}",
            r.fleet,
            r.nodes,
            r.events,
            fmt_f(r.events_per_sec, 1),
            fmt_f(r.wall_ms, 2),
            r.writes,
            r.proxy_updates,
            r.samples,
            fmt_f(r.propagation_ms[0], 3),
            fmt_f(r.propagation_ms[1], 3),
            fmt_f(r.propagation_ms[2], 3),
            fmt_f(r.propagation_ms[3], 3),
            fmt_f(r.propagation_ms[4], 3),
            shares.join(",\n"),
        );
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates the document against the trajectory schema by parsing it
/// back: top-level `benchmark` + a nonempty `runs` array whose rows carry
/// the fleet label, finite non-negative numeric fields, the five
/// propagation quantiles and a nonempty shares map. Returns an error
/// string on the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("unparseable: {e:?}"))?;
    let obj = v.as_object().ok_or("top level is not an object")?;
    match obj.get("benchmark").and_then(Value::as_str) {
        Some("simnet_events_per_sec") => {}
        _ => return Err("benchmark name missing or wrong".into()),
    }
    let runs = obj
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("runs is not an array")?;
    if runs.is_empty() {
        return Err("runs is empty".into());
    }
    for (i, run) in runs.iter().enumerate() {
        let ro = run.as_object().ok_or(format!("run {i} not an object"))?;
        ro.get("fleet")
            .and_then(Value::as_str)
            .ok_or(format!("run {i} missing fleet"))?;
        let quantiles = ro
            .get("propagation_ms")
            .and_then(Value::as_object)
            .ok_or(format!("run {i} missing propagation_ms"))?;
        let fields = [
            "nodes",
            "events",
            "events_per_sec",
            "wall_ms",
            "writes",
            "proxy_updates",
            "samples",
        ];
        let numbers = fields.iter().map(|&f| (f, ro.get(f))).chain(
            ["p50", "p90", "p99", "p999", "max"]
                .iter()
                .map(|&q| (q, quantiles.get(q))),
        );
        for (field, x) in numbers {
            match x.and_then(Value::as_f64) {
                Some(x) if x.is_finite() && x >= 0.0 => {}
                _ => return Err(format!("run {i} field {field} not a finite non-negative")),
            }
        }
        let shares = ro
            .get("subsystem_wall_shares")
            .and_then(Value::as_object)
            .ok_or(format!("run {i} missing subsystem_wall_shares"))?;
        if shares.is_empty() {
            return Err(format!("run {i} has no subsystem shares"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet_row(name: &str, nodes: u64) -> FleetRow {
        FleetRow {
            fleet: name.to_string(),
            nodes,
            events: 5000,
            wall_ms: 12.5,
            events_per_sec: 400000.0,
            writes: 296,
            proxy_updates: 1184,
            samples: 1184,
            propagation_ms: [3.125, 44.0, 81.5, 95.25, 120.0],
            subsystem_wall_shares: vec![("zeus.proxy".into(), 0.75), ("driver".into(), 0.25)],
        }
    }

    #[test]
    fn rendered_rows_validate() {
        let rows = vec![fleet_row("1k", 1008), fleet_row("100k", 100_000)];
        let text = render(&rows);
        validate(&text).expect("schema-valid");
        let v: Value = serde_json::from_str(&text).unwrap();
        let runs = v.as_object().unwrap()["runs"].as_array().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].as_object().unwrap()["fleet"].as_str(), Some("100k"));
    }

    #[test]
    fn validate_rejects_malformed() {
        assert!(validate("{}").is_err());
        assert!(validate("{\"benchmark\": \"simnet_events_per_sec\", \"runs\": []}").is_err());
        let mut row = fleet_row("1k", 1008);
        row.subsystem_wall_shares.clear();
        assert!(validate(&render(&[row])).is_err(), "empty shares");
        let text = render(&[fleet_row("1k", 1008)]).replace("\"p999\"", "\"p99.9\"");
        assert!(validate(&text).is_err(), "missing quantile");
    }
}
