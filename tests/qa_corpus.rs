//! Tier-1 replay of the regression corpus under `tests/corpus/`.
//!
//! Every bug the differential fuzzer (or a human) finds becomes a
//! shrunk `.sql` file there; this test replays each one through the
//! oracle and the full config matrix, checking pinned rows / pinned
//! errors and zero cross-config divergence. See `crates/qa`.

use gis_qa::{corpus, Harness};
use std::path::PathBuf;

#[test]
fn corpus_replays_clean() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = corpus::load_dir(&dir).expect("corpus dir");
    assert!(
        cases.len() >= 7,
        "expected the checked-in corpus, found {} cases",
        cases.len()
    );
    let harness = Harness::new().expect("harness");
    let mut failures = Vec::new();
    for case in &cases {
        if let Err(e) = corpus::replay(&harness, case) {
            failures.push(e);
        }
    }
    assert!(
        failures.is_empty(),
        "corpus failures:\n{}",
        failures.join("\n")
    );
}
