//! Self-tests of the benchmark binary, run in its `--short` mode.

use std::collections::BTreeSet;
use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "fleet_forward",
    "rollback_crash",
    "rollback_nocrash",
    "travel_uds",
    "travel_uds_wal",
];

struct Run {
    det: String,
    result: String,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.3", "--trace", if trace { "1" } else { "0" }])
        .arg("--short")
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}\n{}",
        out.status,
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: short output {stdout}");
    let result = lines[lines.len() - 1].to_owned();
    // Under its crash plan `rollback_crash` loses exchange compensations
    // (see README.md); its checks report that as `correct: false`.
    assert!(
        workload == "rollback_crash" || result.starts_with("{\"correct\": true,"),
        "{workload}: {result}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Run {
        det: lines[lines.len() - 2].to_owned(),
        result,
    }
}

/// `(name, unit)` of every metric object in a `BENCHMARK.json` section.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section end")];
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn field(obj: &str, key: &str) -> String {
    let at = obj
        .find(&format!("\"{key}\": \""))
        .unwrap_or_else(|| panic!("{key} in {obj}"));
    let rest = &obj[at + key.len() + 5..];
    rest[..rest.find('"').expect("closing quote")].to_owned()
}

/// `(name, unit)` of every metric in a result line.
fn printed(result: &str) -> BTreeSet<(String, String)> {
    let metrics = &result[result.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, ")
        .map(|m| {
            let name = m.trim_start_matches(['{', ' ', '"']);
            let name = &name[..name.find('"').expect("name end")];
            (name.to_owned(), field(m, "unit"))
        })
        .collect()
}

fn det_field<'a>(det: &'a str, key: &str) -> &'a str {
    let at = det
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("{key} in {det}"));
    let rest = &det[at + key.len() + 4..];
    &rest[..rest.find([',', '}']).expect("value end")]
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for w in WORKLOADS {
        assert_eq!(
            printed(&run(w, 3, false).result),
            e2e,
            "{w}: end-to-end metrics"
        );
        assert_eq!(
            printed(&run(w, 3, true).result),
            layers,
            "{w}: per-layer metrics"
        );
    }
}

#[test]
fn deterministic_metrics_repeat_per_seed_and_differ_across_seeds() {
    for w in WORKLOADS {
        let a = run(w, 5, false).det;
        assert_eq!(a, run(w, 5, false).det, "{w}: same seed, different figures");
        let b = run(w, 6, false).det;
        for key in [
            "sim_agent_ms_p50",
            "sim_agent_ms_p99",
            "wire_bytes_per_step",
            "stable_bytes_per_step",
        ] {
            assert_ne!(
                det_field(&a, key),
                det_field(&b, key),
                "{w}: {key} ignores the seed"
            );
        }
    }
}

#[test]
fn tracing_passes_calls_through_unchanged() {
    for w in WORKLOADS {
        // The traced run also compares itself against its own untraced
        // phase and reports `correct: false` on any difference.
        assert_eq!(
            run(w, 8, false).det,
            run(w, 8, true).det,
            "{w}: tracing changed results"
        );
    }
}

#[test]
fn uds_and_wal_deployments_run_the_same_schedule() {
    assert_eq!(
        run("travel_uds", 9, false).det,
        run("travel_uds_wal", 9, false).det
    );
}
