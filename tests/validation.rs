//! The validation gate: every committed `validation/VALIDATION_*.json`
//! record re-evaluates at the quick dimensions to PASSED and to its own
//! bytes, and every family also has a committed full-resolution record
//! under `validation/full/`.
//!
//! This is the CI face of the harness (`paper-figures validate --quick`
//! is the CLI face): byte-for-byte golden files guard the engine, these
//! records guard the conclusions. A failure here means a headline claim
//! of EXPERIMENTS.md regressed — fix the regression, or, when the change
//! is intentional, rebless with `paper-figures validate --quick --bless`
//! and review the diff of the committed record.

use ft_experiments::validate::{
    committed_dir, family_path, load_family, render, validate_family, FAMILIES,
};

/// Every family has a committed record in both lanes — quick
/// (`validation/`) and full resolution (`validation/full/`) — each record
/// is all-PASSED (nobody committed a failing target), and each holds the
/// dimensions its lane re-runs.
#[test]
fn committed_records_exist_and_are_passed() {
    let quick_dir = committed_dir();
    for (dir, quick) in [(quick_dir.join("full"), false), (quick_dir, true)] {
        for fam in FAMILIES {
            let rec = load_family(&dir, fam).unwrap_or_else(|| {
                panic!("{}/VALIDATION_{fam}.json is not committed", dir.display())
            });
            assert_eq!(rec.family, fam);
            assert_eq!(
                rec.quick,
                quick,
                "committed '{fam}' record under {} holds the wrong dimensions",
                dir.display()
            );
            assert!(
                rec.passed(),
                "committed '{fam}' record under {} contains FAILED claims:\n{}",
                dir.display(),
                render(&rec)
            );
            assert!(!rec.claims.is_empty());
        }
    }
}

/// The family re-evaluates at the quick dimensions to PASSED, and to the
/// committed record byte for byte: a prediction may not drift inside its
/// tolerance unnoticed. A change that moves one on purpose re-blesses.
fn assert_family_validates(fam: &str) {
    let committed = load_family(&committed_dir(), fam)
        .unwrap_or_else(|| panic!("validation/VALIDATION_{fam}.json is not committed"));
    let rec = validate_family(fam, true, Some(&committed));
    assert!(
        rec.passed(),
        "family '{fam}' regressed against its committed record:\n{}",
        render(&rec)
    );
    // The bytes `save_family` writes: pretty JSON and a trailing newline.
    let fresh = serde_json::to_string_pretty(&rec).expect("records serialize") + "\n";
    let path = family_path(&committed_dir(), fam);
    assert!(
        fresh == std::fs::read_to_string(&path).expect("committed record reads"),
        "family '{fam}' re-evaluated to other bytes than {}:\n{}",
        path.display(),
        render(&rec)
    );
    // Every committed claim was re-measured (a renamed claim id would
    // otherwise silently stop being checked).
    for c in &committed.claims {
        assert!(
            rec.claim(&c.id).is_some(),
            "committed claim '{}' of family '{fam}' was not re-measured — stale id?",
            c.id
        );
    }
}

#[test]
fn grid_claims_pass_at_quick_dimensions() {
    assert_family_validates("grid");
}

#[test]
fn degradation_claims_pass_at_quick_dimensions() {
    assert_family_validates("degradation");
}

#[test]
fn transient_claims_pass_at_quick_dimensions() {
    assert_family_validates("transient");
}

#[test]
fn adaptive_claims_pass_at_quick_dimensions() {
    assert_family_validates("adaptive");
}

#[test]
fn network_claims_pass_at_quick_dimensions() {
    assert_family_validates("network");
}
