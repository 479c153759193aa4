//! Every workload, at a tiny size, prints every metric `BENCHMARK.json`
//! names with its unit, passes its gates, and (traced) writes its span
//! file.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let quoted_after = |s: &str, key: &str| -> String {
        let at = s.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &s[at..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (quoted_after(entry, "name"), quoted_after(entry, "unit")))
        .collect()
}

fn run(workload: &str, txs: usize, trace: bool, cwd: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--txs", &txs.to_string()])
        .current_dir(cwd)
        .output()
        .expect("run wallbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, txs: usize) {
    let cwd: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let stdout = run(workload, txs, trace, &cwd);
        let last = stdout.lines().last().expect("output");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0,"), "{last}");
        for (name, unit) in metrics(section) {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = last
                .find(&entry)
                .unwrap_or_else(|| panic!("{workload}: no {name} in {last}"));
            let rest = &last[at + entry.len()..];
            let value = &rest[..rest.find(',').expect("value ends")];
            assert!(value.parse::<f64>().is_ok(), "{name} = {value}");
            let unit_field = &rest[..rest.find('}').expect("entry ends")];
            assert!(
                unit_field.ends_with(&format!("\"unit\": \"{unit}\"")),
                "{name}: {unit_field}"
            );
        }
    }
    let spans = cwd.join(format!(".wallbench/trace-{workload}-s7.jsonl"));
    let text = std::fs::read_to_string(&spans).expect("traced run writes its span file");
    for name in [
        "gen.submit_wait",
        "core.execute",
        "storage.root",
        "consensus.round",
    ] {
        assert!(
            text.contains(&format!("\"name\":\"{name}\"")),
            "no {name} span"
        );
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn transfer_wal_smoke() {
    check("transfer_wal", 40);
}

#[test]
fn abs_100k_rw_smoke() {
    check("abs_100k_rw", 24);
}

#[test]
fn consortium4_smoke() {
    check("consortium4", 30);
}
