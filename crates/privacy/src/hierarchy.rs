//! Generalization hierarchies for quasi-identifiers.
//!
//! Each hierarchy defines a ladder of increasingly coarse views of a value;
//! level 0 is the original value, the top level is full suppression (`*`).

use std::collections::HashMap;

/// A full-domain generalization hierarchy.
#[derive(Debug, Clone)]
pub enum Hierarchy {
    /// Replace the rightmost `level` digits/characters with `*`
    /// (e.g. phone numbers: `8210000017` → `821000001*` → `82100000**` …).
    /// The top level (`= levels`) suppresses the whole value.
    MaskSuffix { levels: u32 },
    /// Bucket numeric values into ranges whose width doubles per level,
    /// starting at `base_width` (e.g. durations: `[0,10)` → `[0,20)` …).
    /// The top level suppresses.
    NumericRange { base_width: f64, levels: u32 },
    /// Explicit taxonomy: `maps[i]` rewrites a level-`i` value to its
    /// level-`i+1` parent (e.g. cell → region → city → `*`). Values missing
    /// from a map generalize to `*`.
    Taxonomy { maps: Vec<HashMap<String, String>> },
}

/// The suppressed value at the hierarchy top.
pub const SUPPRESSED: &str = "*";

impl Hierarchy {
    /// Number of generalization steps above level 0.
    pub fn max_level(&self) -> u32 {
        match self {
            Hierarchy::MaskSuffix { levels } => *levels,
            Hierarchy::NumericRange { levels, .. } => *levels,
            Hierarchy::Taxonomy { maps } => maps.len() as u32,
        }
    }

    /// The level-`level` view of `value`.
    pub fn generalize(&self, value: &str, level: u32) -> String {
        if level == 0 {
            return value.to_string();
        }
        if level >= self.max_level() && !matches!(self, Hierarchy::Taxonomy { .. }) {
            return SUPPRESSED.to_string();
        }
        match self {
            Hierarchy::MaskSuffix { .. } => {
                let masked = level as usize;
                let keep = value.chars().count().saturating_sub(masked);
                if keep == 0 {
                    return SUPPRESSED.to_string();
                }
                let cut = value
                    .char_indices()
                    .nth(keep)
                    .map_or(value.len(), |(at, _)| at);
                let mut out = String::with_capacity(cut + masked);
                out.push_str(&value[..cut]);
                out.extend(std::iter::repeat_n('*', masked));
                out
            }
            Hierarchy::NumericRange { base_width, .. } => {
                let Ok(v) = value.parse::<f64>() else {
                    return SUPPRESSED.to_string();
                };
                // In `f64`: a `u32` shift would overflow past level 32.
                let width = base_width * 2f64.powi(level as i32 - 1);
                let lo = (v / width).floor() * width;
                let mut out = String::with_capacity(24);
                out.push('[');
                push_rounded(&mut out, lo);
                out.push(',');
                push_rounded(&mut out, lo + width);
                out.push(')');
                out
            }
            Hierarchy::Taxonomy { maps } => {
                let mut cur = value.to_string();
                for map in maps.iter().take(level as usize) {
                    cur = map
                        .get(&cur)
                        .cloned()
                        .unwrap_or_else(|| SUPPRESSED.to_string());
                    if cur == SUPPRESSED {
                        break;
                    }
                }
                cur
            }
        }
    }
}

/// Append `format!("{x:.0}")`, writing a whole number below 2^53 as the
/// integer it is, without the float formatter.
fn push_rounded(out: &mut String, x: f64) {
    use std::fmt::Write;
    let exact = x.fract() == 0.0 && x.abs() < 2f64.powi(53);
    // `-0.0` rounds to "-0", the integer 0 to "0".
    if exact && !(x == 0.0 && x.is_sign_negative()) {
        write!(out, "{}", x as i64)
    } else {
        write!(out, "{x:.0}")
    }
    .expect("a String takes every write");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_suffix_ladder() {
        let h = Hierarchy::MaskSuffix { levels: 4 };
        assert_eq!(h.max_level(), 4);
        assert_eq!(h.generalize("8210017", 0), "8210017");
        assert_eq!(h.generalize("8210017", 1), "821001*");
        assert_eq!(h.generalize("8210017", 3), "8210***");
        assert_eq!(h.generalize("8210017", 4), "*");
        // Values shorter than the mask suppress entirely.
        assert_eq!(h.generalize("ab", 3), "*");
    }

    #[test]
    fn numeric_ranges_widen() {
        let h = Hierarchy::NumericRange {
            base_width: 10.0,
            levels: 3,
        };
        assert_eq!(h.generalize("17", 1), "[10,20)");
        assert_eq!(h.generalize("17", 2), "[0,20)");
        assert_eq!(h.generalize("37", 2), "[20,40)");
        assert_eq!(h.generalize("17", 3), "*");
        assert_eq!(h.generalize("not-a-number", 1), "*");
    }

    #[test]
    fn rounding_writes_what_the_float_formatter_writes() {
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            2.5,
            -2.5,
            59.999,
            1e15,
            -1e15,
            2f64.powi(53) - 1.0,
            2f64.powi(53),
            -(2f64.powi(53)),
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        cases.extend((-300..300).map(|i| f64::from(i) * 7.25));
        for x in cases {
            let mut out = String::new();
            push_rounded(&mut out, x);
            assert_eq!(out, format!("{x:.0}"), "{x:?}");
        }
    }

    #[test]
    fn masking_counts_characters() {
        let h = Hierarchy::MaskSuffix { levels: 3 };
        assert_eq!(h.generalize("čaj42", 2), "čaj**");
        assert_eq!(h.generalize("čaj", 2), "č**");
        assert_eq!(h.generalize("čaj", 3), "*");
    }

    #[test]
    fn numeric_ranges_nest_past_level_32() {
        let h = Hierarchy::NumericRange {
            base_width: 1.0,
            levels: 41,
        };
        let range = |value: &str, level| -> (f64, f64) {
            let text = h.generalize(value, level);
            let (lo, hi) = text
                .strip_prefix('[')
                .and_then(|t| t.strip_suffix(')'))
                .and_then(|t| t.split_once(','))
                .unwrap_or_else(|| panic!("level {level}: {text}"));
            (lo.parse().unwrap(), hi.parse().unwrap())
        };
        assert_eq!(h.generalize("5000000000", 32), "[4294967296,6442450944)");
        for value in ["0", "17", "5000000000", "123456789012345"] {
            for level in 30..40 {
                let (lo, hi) = range(value, level);
                let (up_lo, up_hi) = range(value, level + 1);
                let v: f64 = value.parse().unwrap();
                assert!(lo <= v && v < hi, "{value} at {level}: [{lo},{hi})");
                assert!(
                    up_lo <= lo && hi <= up_hi,
                    "{value}: [{lo},{hi}) at {level} not inside [{up_lo},{up_hi})"
                );
            }
        }
    }

    #[test]
    fn taxonomy_walks_up() {
        let mut cell_to_region = HashMap::new();
        cell_to_region.insert("c1".to_string(), "north".to_string());
        cell_to_region.insert("c2".to_string(), "north".to_string());
        cell_to_region.insert("c3".to_string(), "south".to_string());
        let mut region_to_city = HashMap::new();
        region_to_city.insert("north".to_string(), "nicosia".to_string());
        region_to_city.insert("south".to_string(), "nicosia".to_string());
        let h = Hierarchy::Taxonomy {
            maps: vec![cell_to_region, region_to_city],
        };
        assert_eq!(h.max_level(), 2);
        assert_eq!(h.generalize("c1", 0), "c1");
        assert_eq!(h.generalize("c1", 1), "north");
        assert_eq!(h.generalize("c3", 1), "south");
        assert_eq!(h.generalize("c1", 2), "nicosia");
        assert_eq!(h.generalize("c3", 2), "nicosia");
        assert_eq!(h.generalize("unknown", 1), "*");
    }

    #[test]
    fn level_zero_is_identity_everywhere() {
        for h in [
            Hierarchy::MaskSuffix { levels: 2 },
            Hierarchy::NumericRange {
                base_width: 5.0,
                levels: 2,
            },
            Hierarchy::Taxonomy { maps: vec![] },
        ] {
            assert_eq!(h.generalize("xyz", 0), "xyz");
        }
    }
}
