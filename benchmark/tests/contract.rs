//! `/BENCHMARK.json` against the program's own tables.

use brainsim_benchmark::report::{END_TO_END, PER_LAYER};
use brainsim_benchmark::{contract_json, WORKLOADS};

#[test]
fn benchmark_json_is_rendered_from_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    if std::env::var_os("BENCHMARK_WRITE_CONTRACT").is_some() {
        std::fs::write(path, contract_json()).unwrap();
    }
    let file = std::fs::read_to_string(path).unwrap();
    assert_eq!(file, contract_json(), "regenerate /BENCHMARK.json");
}

#[test]
fn names_and_units_are_within_the_contract() {
    let name_ok = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
    assert!((2..=8).contains(&WORKLOADS.len()));
    for (name, why) in WORKLOADS {
        assert!(name_ok(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains(['\n', '"']),
            "{name}: {why}"
        );
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name_ok(spec.name), "{}", spec.name);
        assert!(unit_ok(spec.unit), "{}: {}", spec.name, spec.unit);
        names.push(spec.name);
    }
    for spec in END_TO_END {
        let bound = spec.bound.expect("end-to-end metrics have bounds");
        assert!(bound > 0.0 && bound <= 0.25, "{}", spec.name);
    }
    assert!(PER_LAYER.iter().all(|spec| spec.bound.is_none()));
    assert!(END_TO_END
        .iter()
        .any(|s| s.name == "setup_s" && s.unit == "s"));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(contract_json().len() <= 64 * 1024);
}
