//! Round-trip property tests for the JSON parser against the byte-stable
//! renderer: `parse(render(v)) == v` for every tree with finite floats,
//! including the RFC 8259 escape corpus the renderer's unit tests pin —
//! and for the streamed canonical writer against a tree-building
//! reference, on trees with duplicate keys at every level.

use lcosc_campaign::Json;
use proptest::prelude::*;

/// Builds a deterministic pseudo-random `Json` tree from an integer seed.
///
/// The vendored proptest stub has no recursive strategy combinators, so
/// the tree shape is derived from a SplitMix-style walk over the seed —
/// still a pure function of the generated input, so failures reproduce.
fn tree_from_seed(seed: u64, depth: usize) -> Json {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let z = mix(seed);
    let pick = if depth == 0 { z % 6 } else { z % 8 };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(z & 1 == 0),
        2 => Json::Int(z as i64),
        3 => {
            // A finite float with a wide dynamic range (mantissa / 2^k).
            let mantissa = (mix(z) >> 11) as i64 - (1 << 52);
            let scale = (z % 64) as i32 - 32;
            Json::Float((mantissa as f64) * 2f64.powi(scale))
        }
        4 => Json::Str(string_from_seed(z)),
        5 => Json::Str(String::new()),
        6 => Json::Array(
            (0..(z % 4))
                .map(|i| tree_from_seed(mix(z ^ i), depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..(z % 4))
                .map(|i| {
                    (
                        string_from_seed(mix(z ^ (i << 8))),
                        tree_from_seed(mix(z ^ i ^ 0xff), depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

/// Strings exercising the full escape surface: control chars, quotes,
/// backslashes, multi-byte UTF-8 and astral-plane scalars.
fn string_from_seed(z: u64) -> String {
    const ALPHABET: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{1}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        'é',
        'λ',
        '\u{2028}',
        '\u{1f600}',
        '中',
        '\u{7f}',
    ];
    let mut s = String::new();
    let mut state = z;
    for _ in 0..(z % 12) {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        s.push(ALPHABET[(state >> 33) as usize % ALPHABET.len()]);
    }
    s
}

/// Appends to every non-empty object a second member under its first key,
/// with a different value, recursively — so canonicalization has a
/// duplicate to drop at every level.
fn with_duplicate_keys(v: Json, seed: u64) -> Json {
    match v {
        Json::Array(items) => Json::Array(
            items
                .into_iter()
                .enumerate()
                .map(|(i, item)| with_duplicate_keys(item, seed ^ (i as u64 + 1)))
                .collect(),
        ),
        Json::Object(pairs) => {
            let mut pairs: Vec<(String, Json)> = pairs
                .into_iter()
                .enumerate()
                .map(|(i, (k, item))| (k, with_duplicate_keys(item, seed ^ (i as u64 + 1))))
                .collect();
            if let Some((key, first)) = pairs.first().cloned() {
                let mut other = tree_from_seed(seed.rotate_left(17), 1);
                if other == first {
                    other = Json::Array(vec![other]);
                }
                pairs.push((key, other));
            }
            Json::Object(pairs)
        }
        scalar => scalar,
    }
}

/// The canonical form built the slow, obvious way: keep each key's first
/// occurrence, stable-sort by key, recurse; rendering it compactly is what
/// `Json::write_canonical` must stream.
fn reference_canonical(v: &Json) -> Json {
    match v {
        Json::Array(items) => Json::Array(items.iter().map(reference_canonical).collect()),
        Json::Object(pairs) => {
            let mut kept: Vec<(String, Json)> = Vec::new();
            for (k, item) in pairs {
                if !kept.iter().any(|(seen, _)| seen == k) {
                    kept.push((k.clone(), reference_canonical(item)));
                }
            }
            kept.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Object(kept)
        }
        scalar => scalar.clone(),
    }
}

proptest! {
    #[test]
    fn parse_inverts_render(seed in 0u64..u64::MAX) {
        let v = tree_from_seed(seed, 3);
        let compact = v.render();
        prop_assert_eq!(Json::parse(&compact).unwrap(), v.clone());
        // Pretty rendering parses back to the same tree too.
        prop_assert_eq!(Json::parse(&v.render_pretty(2)).unwrap(), v);
    }

    #[test]
    fn render_parse_render_is_a_fixpoint(seed in 0u64..u64::MAX) {
        // Byte-level idempotence: render(parse(render(v))) == render(v),
        // the property the content-addressed cache keys rely on.
        let v = tree_from_seed(seed, 3);
        let first = v.render();
        let reparsed = Json::parse(&first).unwrap();
        prop_assert_eq!(reparsed.render(), first);
    }

    #[test]
    fn streamed_canonical_form_matches_the_reference(seed in 0u64..u64::MAX) {
        let v = with_duplicate_keys(tree_from_seed(seed, 3), seed);
        prop_assert_eq!(v.render_canonical(), reference_canonical(&v).render());
    }

    #[test]
    fn canonical_form_is_stable_under_round_trip(seed in 0u64..u64::MAX) {
        let v = with_duplicate_keys(tree_from_seed(seed, 3), seed);
        let canon = v.render_canonical();
        let round = Json::parse(&canon).unwrap();
        prop_assert_eq!(round.render_canonical(), canon);
    }

    #[test]
    fn omitted_member_is_dropped_only_at_the_top_level(seed in 0u64..u64::MAX) {
        let inner = tree_from_seed(seed, 3);
        let v = with_duplicate_keys(
            Json::Object(vec![
                ("id".to_string(), inner.clone()),
                ("body".to_string(), Json::Array(vec![Json::obj([("id", Json::Int(1))]), inner])),
                ("id".to_string(), Json::Null),
            ]),
            seed,
        );
        let Json::Object(pairs) = &v else {
            unreachable!("built as an object")
        };
        let stripped = Json::Object(pairs.iter().filter(|(k, _)| k != "id").cloned().collect());
        let mut out = String::new();
        v.write_canonical(&mut out, Some("id"));
        prop_assert_eq!(out, reference_canonical(&stripped).render());
    }

    #[test]
    fn escape_corpus_strings_round_trip(seed in 0u64..u64::MAX) {
        let s = string_from_seed(seed);
        let v = Json::Str(s);
        prop_assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}

#[test]
fn renderer_unit_corpus_round_trips() {
    // The exact documents the renderer's unit tests pin, read back.
    for (text, expect) in [
        (
            r#"{"a":1,"b":[0.5,null],"c":"x\"y"}"#,
            Json::obj([
                ("a", Json::Int(1)),
                ("b", Json::Array(vec![Json::Float(0.5), Json::Null])),
                ("c", Json::from("x\"y")),
            ]),
        ),
        (r#""a\u0001b\tc""#, Json::from("a\u{1}b\tc")),
        (
            r#"{"z":1,"a":2}"#,
            Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]),
        ),
    ] {
        let parsed = Json::parse(text).unwrap();
        assert_eq!(parsed, expect);
        assert_eq!(parsed.render(), text);
    }
}
