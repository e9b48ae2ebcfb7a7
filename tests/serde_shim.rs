//! How an absent field crosses a wire: the vendored `serde` /
//! `serde_derive` rules every derived wire struct relies on, tested
//! from a default member (the vendored crates are outside tier-1, and
//! `serde_derive` can only be tested through a crate that derives).

use serde::{Deserialize, Serialize};

#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
struct Probe {
    required: u32,
    optional: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    skipped: Option<String>,
    #[serde(default)]
    flag: bool,
    #[serde(default)]
    count: u64,
}

fn parse(json: &str) -> Result<Probe, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

#[test]
fn a_missing_or_null_option_is_none() {
    let want = Probe {
        required: 1,
        ..Probe::default()
    };
    assert_eq!(parse(r#"{"required":1}"#).unwrap(), want);
    assert_eq!(
        parse(r#"{"required":1,"optional":null,"skipped":null}"#).unwrap(),
        want
    );
    let some = parse(r#"{"required":1,"optional":7,"skipped":"s"}"#).unwrap();
    assert_eq!((some.optional, some.skipped), (Some(7), Some("s".into())));
}

#[test]
fn a_missing_required_field_is_named() {
    let err = parse(r#"{"optional":7}"#).unwrap_err();
    assert!(err.contains("missing field `required`"), "{err}");
    // Present but `null` is a type error, not an absence.
    let err = parse(r#"{"required":null}"#).unwrap_err();
    assert!(!err.contains("missing field"), "{err}");
}

#[test]
fn default_fills_a_missing_key_only() {
    let p = parse(r#"{"required":1}"#).unwrap();
    assert_eq!((p.flag, p.count), (false, 0));
    let p = parse(r#"{"required":1,"flag":true,"count":9}"#).unwrap();
    assert_eq!((p.flag, p.count), (true, 9));
    // As in serde proper, `default` does not turn `null` into a value.
    assert!(parse(r#"{"required":1,"flag":null}"#).is_err());
    assert!(parse(r#"{"required":1,"count":"9"}"#).is_err());
}

#[test]
fn skip_serializing_if_omits_only_none() {
    let mut p = Probe {
        required: 1,
        ..Probe::default()
    };
    // Declaration order; the unmarked `None` is written as `null`.
    assert_eq!(
        serde_json::to_string(&p).unwrap(),
        r#"{"required":1,"optional":null,"flag":false,"count":0}"#
    );
    p.skipped = Some(String::new());
    assert_eq!(
        serde_json::to_string(&p).unwrap(),
        r#"{"required":1,"optional":null,"skipped":"","flag":false,"count":0}"#
    );
}

#[test]
fn a_struct_with_all_three_round_trips() {
    for p in [
        Probe::default(),
        Probe {
            required: u32::MAX,
            optional: Some(0),
            skipped: Some("x".into()),
            flag: true,
            count: u64::MAX,
        },
    ] {
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(parse(&json).unwrap(), p, "{json}");
    }
}
