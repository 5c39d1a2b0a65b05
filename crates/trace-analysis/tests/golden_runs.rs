//! Golden-file test: `aaltune runs` over the committed run directories in
//! `tests/fixtures/`, pinned in `tests/fixtures/runs.txt`.
//!
//! Each row is read from its run directory: model, method and wall time
//! from the manifest, GFLOPS from the logs, the health column from the
//! trace (only `traced` has one). The plain files beside the runs are not
//! runs and do not list.

use std::path::PathBuf;
use trace_analysis::RunListing;

#[test]
fn runs_listing_matches_golden_output() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let listing = RunListing::scan(&root).unwrap();
    assert!(listing.skipped.is_empty(), "{:?}", listing.skipped);
    // A fixed "now": every fixture finished, so status reads "done" at any
    // time, but the table must not depend on the clock.
    let table = listing.render_at(&listing.filtered(None, None), 1_700_000_000_000);
    assert_eq!(table, std::fs::read_to_string(root.join("runs.txt")).unwrap());
}
