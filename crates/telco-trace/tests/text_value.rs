//! `Text` and `Value::Str` behave as the string they hold, on both sides
//! of the 22-byte inline bound.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use telco_trace::{Text, Value};

fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Lengths 0, 1, 21, 22 (last inline), 23 (first heap), 24 and 100, with
/// multi-byte strings landing on 22 and 23 bytes, and pairs that differ
/// only in the last byte or only in length.
fn samples() -> Vec<String> {
    let alphabet = "abcdefghijklmnopqrstuvwxyz";
    let mut v: Vec<String> = [0usize, 1, 21, 22, 23, 24, 100]
        .iter()
        .map(|&n| alphabet.chars().cycle().take(n).collect())
        .collect();
    v.push(format!("{}!", &v[3][..21])); // 22 bytes, differs at the end
    v.push(format!("{}!", &v[4][..22])); // 23 bytes, differs at the end
    v.push("é".repeat(11)); // 22 bytes
    v.push(format!("{}x", "é".repeat(11))); // 23 bytes
    v
}

#[test]
fn value_is_24_bytes() {
    assert_eq!(std::mem::size_of::<Value>(), 24);
    assert_eq!(Text::INLINE_CAP, 22);
}

#[test]
fn eq_ord_hash_clone_are_those_of_the_string() {
    let all = samples();
    for a in &all {
        let ta = Text::new(a);
        assert_eq!(ta.clone(), ta);
        assert_eq!(ta.clone().as_str(), a);
        assert_eq!(hash_of(&ta), hash_of(a.as_str()));
        assert_eq!(Value::Str(ta.clone()).clone(), Value::Str(ta.clone()));
        for b in &all {
            // Built the other way, so equal strings meet across constructors.
            let tb = Text::from(b.clone());
            assert_eq!(ta == tb, a == b, "{a:?} == {b:?}");
            assert_eq!(ta.cmp(&tb), a.cmp(b), "{a:?} cmp {b:?}");
            assert_eq!(Value::Str(ta.clone()) == Value::Str(tb), a == b);
        }
    }
}

#[test]
fn debug_and_display_print_as_string_does() {
    for s in samples()
        .iter()
        .map(String::as_str)
        .chain(["a\"b\\c\n\u{7f}é", "tab\there"])
    {
        let t = Text::new(s);
        assert_eq!(format!("{t:?}"), format!("{s:?}"));
        assert_eq!(format!("{t:#?}"), format!("{s:#?}"));
        assert_eq!(format!("{t}"), s);
        // What the `BENCH_SCALE.json` digests hash.
        assert_eq!(format!("{:?}", Value::Str(t)), format!("Str({s:?})"));
    }
}

#[test]
fn text_views_borrow_strings_and_format_numbers() {
    use std::borrow::Cow;
    let long = "x".repeat(40);
    assert!(matches!(
        Value::Str("LTE".into()).text(),
        Cow::Borrowed("LTE")
    ));
    assert!(matches!(Value::Str(long.as_str().into()).text(), Cow::Borrowed(s) if s == long));
    assert!(matches!(Value::Null.text(), Cow::Borrowed("")));
    assert_eq!(Value::Int(-5).text(), "-5");
    assert_eq!(Value::Float(2.34567).text(), "2.35");
    for v in [
        Value::Null,
        Value::Str("a".into()),
        Value::Int(i64::MIN),
        Value::Float(-0.004),
    ] {
        assert_eq!(v.text(), v.as_text());
        assert_eq!(v.to_string(), v.as_text());
    }
}
