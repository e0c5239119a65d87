//! A project's JSON config is author input: it reaches the runtime through
//! `Runtime::update_project_json`. Whatever the text holds, the update
//! either installs exactly what was written or is refused with an error —
//! it never aborts the process and never installs a rounded, clamped or
//! truncated number in place of the one written.

use gatekeeper::prelude::{Project, RestraintKind, RestraintSpec, Rule, Runtime};

fn runtime() -> Runtime<laser::Laser> {
    Runtime::new(laser::Laser::new(16))
}

fn project_with(kind: &str) -> String {
    format!(
        r#"{{"name": "P", "rules": [{{"restraints": [{{"kind": {kind}, "negate": false}}], "pass_prob": 1.0}}]}}"#
    )
}

#[test]
fn deeply_nested_json_is_refused_not_a_stack_overflow() {
    // 200,000 open brackets used to recurse once each and abort the
    // process with a stack overflow.
    let mut gk = runtime();
    for open in ["[", "{\"a\":"] {
        let json = open.repeat(200_000);
        let err = gk.update_project_json(&json).expect_err("refused");
        assert!(err.contains("nested"), "{err}");
    }
    assert!(!gk.has_project("P"));
}

#[test]
fn integer_fields_round_trip_exactly() {
    let ids = vec![(1u64 << 53) + 1, u64::MAX, 0];
    let p = Project::new(
        "P",
        vec![Rule::new(
            vec![
                RestraintSpec::of(RestraintKind::IdList(ids.clone())),
                RestraintSpec::of(RestraintKind::MinFriends(u32::MAX)),
            ],
            1.0,
        )],
    );
    let back = Project::from_config_json(&p.to_config_json()).expect("round trip");
    assert_eq!(back, p);
    assert_eq!(back.rules[0].restraints[0].kind, RestraintKind::IdList(ids));
}

#[test]
fn out_of_range_or_fractional_integers_are_refused() {
    let mut gk = runtime();
    for kind in [
        r#"{"MinFriends": -5}"#,
        r#"{"MinFriends": 2.9}"#,
        r#"{"MinFriends": 4294967296}"#,
        r#"{"IdList": [1, 18446744073709551616]}"#,
        r#"{"IdList": [1.5]}"#,
    ] {
        let err = gk.update_project_json(&project_with(kind));
        assert!(err.is_err(), "{kind} was accepted");
    }
    assert!(!gk.has_project("P"));
    gk.update_project_json(&project_with(r#"{"MinFriends": 5}"#))
        .expect("an in-range integer is accepted");
    assert!(gk.has_project("P"));
}
