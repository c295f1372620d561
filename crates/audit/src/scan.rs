//! Per-file analysis: turn annotations into brace-matched regions and run
//! the determinism rule set over the tokens inside them.
//!
//! # Annotation syntax
//!
//! ```text
//! // wgft-audit: consensus-critical [-- reason]
//! fn image_seed(...) { ... }            // region = the next item's braces
//!
//! //! wgft-audit: consensus-critical    // inner form: the whole file
//!
//! // wgft-audit: blessed(float-arith) -- justification text
//! pub fn dot_f32(...) { ... }           // named rules suppressed inside
//! ```
//!
//! A marker applies to the item that follows it: the region runs from the
//! marker line to the matching `}` of the first brace the item opens (or to
//! the terminating `;` for brace-less items). `blessed(...)` carves a
//! rule-specific exemption out of a critical region — it is how a
//! fixed-order float kernel is implemented in f32 without tripping the
//! float rules — and its justification is mandatory.

use crate::lex::{lex, Marker, Tok, TokKind};
use serde::{Deserialize, Serialize};

/// Severity tier of a finding.
///
/// `deny` findings break determinism outright (float arithmetic, unseeded
/// randomness, nondeterministic iteration); `warn` findings are suspect in a
/// consensus-critical region but may be legitimate plumbing (wall-clock
/// reads that never feed a journaled number).
pub const SEVERITY_DENY: &str = "deny";
/// See [`SEVERITY_DENY`].
pub const SEVERITY_WARN: &str = "warn";

/// Every rule the auditor knows, with its severity tier.
pub const RULES: &[(&str, &str)] = &[
    ("float-arith", SEVERITY_DENY),
    ("fma", SEVERITY_DENY),
    ("hash-iteration", SEVERITY_DENY),
    ("unseeded-rng", SEVERITY_DENY),
    ("rayon-reduction", SEVERITY_DENY),
    ("wall-clock", SEVERITY_WARN),
    ("audit-annotation", SEVERITY_DENY),
];

/// Severity of a rule id (defaults to deny for unknown ids).
#[must_use]
pub fn severity_of(rule: &str) -> &'static str {
    RULES
        .iter()
        .find(|(id, _)| *id == rule)
        .map_or(SEVERITY_DENY, |(_, sev)| sev)
}

/// Whether a rule id names a real rule (annotation validation).
#[must_use]
pub fn is_known_rule(rule: &str) -> bool {
    RULES.iter().any(|(id, _)| *id == rule)
}

/// One diagnostic: a rule violated at a file:line, with the offending
/// source line and a content-addressed fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Rule id (see [`RULES`]).
    pub rule: String,
    /// `deny` or `warn`.
    pub severity: String,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Human-readable explanation.
    pub message: String,
    /// FNV-1a over (file, rule, excerpt, occurrence index) — stable across
    /// line-number shifts, so baselines survive unrelated edits.
    pub fingerprint: String,
}

/// A line range (inclusive) classified consensus-critical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Region {
    /// First line (the marker's).
    pub start: u32,
    /// Last line (the matching close brace or semicolon).
    pub end: u32,
}

/// A `blessed(...)` exemption region.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Blessed {
    start: u32,
    end: u32,
    rules: Vec<String>,
}

/// Everything the auditor learned about one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Rule violations (annotation errors included), in line order.
    pub findings: Vec<Finding>,
    /// Consensus-critical regions declared in the file.
    pub regions: Vec<Region>,
}

/// 64-bit FNV-1a (same constants as the sweep journal's content hash).
// wgft-audit: consensus-critical -- baselines are keyed by these fingerprints
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Scan one file's source. `file` is the path recorded in findings.
#[must_use]
pub fn scan_source(file: &str, source: &str) -> FileScan {
    let lexed = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let last_line = lines.len() as u32;
    let mut scan = FileScan::default();
    let mut blessed: Vec<Blessed> = Vec::new();
    let mut raw: Vec<RawFinding> = Vec::new();

    for marker in &lexed.markers {
        apply_marker(
            marker,
            &lexed.tokens,
            last_line,
            &mut scan.regions,
            &mut blessed,
            &mut raw,
        );
    }
    run_rules(&lexed.tokens, &scan.regions, &blessed, &mut raw);

    raw.sort_by_key(|f| (f.line, f.rule));
    scan.findings = finalize(file, &lines, raw);
    scan
}

/// A finding before excerpt/fingerprint resolution.
struct RawFinding {
    rule: &'static str,
    line: u32,
    message: String,
}

/// Resolve excerpts and occurrence-indexed fingerprints.
fn finalize(file: &str, lines: &[&str], raw: Vec<RawFinding>) -> Vec<Finding> {
    let mut seen: Vec<(String, u32)> = Vec::new();
    raw.into_iter()
        .map(|f| {
            let excerpt = lines
                .get(f.line as usize - 1)
                .map_or(String::new(), |l| l.trim().to_string());
            let key = format!("{file}|{}|{excerpt}", f.rule);
            let occurrence = match seen.iter_mut().find(|(k, _)| *k == key) {
                Some((_, count)) => {
                    *count += 1;
                    *count
                }
                None => {
                    seen.push((key.clone(), 0));
                    0
                }
            };
            let fingerprint = format!("{:016x}", fnv1a64(format!("{key}|{occurrence}").as_bytes()));
            Finding {
                rule: f.rule.to_string(),
                severity: severity_of(f.rule).to_string(),
                file: file.to_string(),
                line: f.line,
                excerpt,
                message: f.message,
                fingerprint,
            }
        })
        .collect()
}

/// Interpret one marker: grow the region/blessed lists or record an
/// annotation error.
fn apply_marker(
    marker: &Marker,
    tokens: &[Tok],
    last_line: u32,
    regions: &mut Vec<Region>,
    blessed: &mut Vec<Blessed>,
    raw: &mut Vec<RawFinding>,
) {
    let text = marker.text.as_str();
    if text == "consensus-critical" || text.starts_with("consensus-critical --") {
        if marker.inner {
            regions.push(Region {
                start: 1,
                end: last_line,
            });
        } else {
            let end = region_end(tokens, marker.line, last_line);
            regions.push(Region {
                start: marker.line,
                end,
            });
        }
        return;
    }
    if let Some(rest) = text.strip_prefix("blessed(") {
        if marker.inner {
            raw.push(RawFinding {
                rule: "audit-annotation",
                line: marker.line,
                message: "`blessed(...)` must annotate an item, not a whole file".to_string(),
            });
            return;
        }
        let Some(close) = rest.find(')') else {
            raw.push(RawFinding {
                rule: "audit-annotation",
                line: marker.line,
                message: "unclosed `blessed(` annotation".to_string(),
            });
            return;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let justification = rest[close + 1..]
            .trim()
            .strip_prefix("--")
            .map(str::trim)
            .unwrap_or("");
        if rules.is_empty() || rules.iter().any(|r| !is_known_rule(r)) {
            raw.push(RawFinding {
                rule: "audit-annotation",
                line: marker.line,
                message: format!(
                    "`blessed(...)` names an unknown rule (known: {})",
                    RULES
                        .iter()
                        .map(|(id, _)| *id)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
            return;
        }
        if justification.is_empty() {
            raw.push(RawFinding {
                rule: "audit-annotation",
                line: marker.line,
                message: "`blessed(...)` requires a justification: `blessed(rule) -- why`"
                    .to_string(),
            });
            return;
        }
        let end = region_end(tokens, marker.line, last_line);
        blessed.push(Blessed {
            start: marker.line,
            end,
            rules,
        });
        return;
    }
    raw.push(RawFinding {
        rule: "audit-annotation",
        line: marker.line,
        message: format!(
            "unknown wgft-audit annotation `{text}` (expected `consensus-critical` or \
             `blessed(rule, ...) -- justification`)"
        ),
    });
}

/// The last line of the item following a marker: the matching `}` of the
/// first brace it opens, or the first top-level `;` for brace-less items.
fn region_end(tokens: &[Tok], marker_line: u32, last_line: u32) -> u32 {
    let mut depth = 0usize;
    for tok in tokens.iter().filter(|t| t.line > marker_line) {
        match tok.kind {
            TokKind::LBrace => depth += 1,
            TokKind::RBrace => {
                if depth <= 1 {
                    return tok.line;
                }
                depth -= 1;
            }
            TokKind::Semi if depth == 0 => return tok.line,
            _ => {}
        }
    }
    last_line
}

/// Identifiers that start a rayon parallel-iterator chain.
const PAR_IDENTS: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_bridge",
];

/// Reduction adapters that are order-sensitive for non-associative element
/// types.
const REDUCE_IDENTS: &[&str] = &["sum", "product", "reduce", "fold"];

/// Run every token rule over the critical regions.
fn run_rules(tokens: &[Tok], regions: &[Region], blessed: &[Blessed], raw: &mut Vec<RawFinding>) {
    let in_critical = |line: u32| regions.iter().any(|r| r.start <= line && line <= r.end);
    let is_blessed = |line: u32, rule: &str| {
        blessed
            .iter()
            .any(|b| b.start <= line && line <= b.end && b.rules.iter().any(|r| r == rule))
    };
    let mut push = |rule: &'static str, line: u32, message: String| {
        if !is_blessed(line, rule) {
            raw.push(RawFinding {
                rule,
                line,
                message,
            });
        }
    };

    // Statement-scoped state for the rayon-reduction rule: a parallel
    // iterator seen since the last `;` arms the reduction check.
    let mut par_armed = false;

    for (idx, tok) in tokens.iter().enumerate() {
        if !in_critical(tok.line) {
            continue;
        }
        match &tok.kind {
            TokKind::Semi => par_armed = false,
            TokKind::FloatLit => push(
                "float-arith",
                tok.line,
                "float literal in a consensus-critical region".to_string(),
            ),
            TokKind::Ident(name) => match name.as_str() {
                "f32" | "f64" => push(
                    "float-arith",
                    tok.line,
                    format!(
                        "`{name}` type/cast in a consensus-critical region — use \
                         integer/fixed-point arithmetic or a blessed fixed-order float kernel"
                    ),
                ),
                "mul_add" => push(
                    "fma",
                    tok.line,
                    "`mul_add` fuses the multiply's rounding step; FMA availability is \
                     platform-dependent"
                        .to_string(),
                ),
                "HashMap" | "HashSet" => push(
                    "hash-iteration",
                    tok.line,
                    format!("`{name}` iteration order is nondeterministic — use `BTreeMap`/`BTreeSet`"),
                ),
                "Instant" | "SystemTime" => push(
                    "wall-clock",
                    tok.line,
                    format!("wall-clock read (`{name}`) in a consensus-critical region"),
                ),
                "thread_rng" | "from_entropy" | "OsRng" => push(
                    "unseeded-rng",
                    tok.line,
                    format!("`{name}` draws entropy at runtime — derive seeds from the campaign plan"),
                ),
                "random" if path_is_rand(tokens, idx) => push(
                    "unseeded-rng",
                    tok.line,
                    "`rand::random` draws thread-local entropy — derive seeds from the campaign plan"
                        .to_string(),
                ),
                par if PAR_IDENTS.contains(&par) => par_armed = true,
                red if REDUCE_IDENTS.contains(&red) && par_armed && follows_dot(tokens, idx) => {
                    par_armed = false;
                    push(
                        "rayon-reduction",
                        tok.line,
                        format!(
                            "`.{red}()` on a parallel iterator reduces in a nondeterministic \
                             order — not associative-safe for floats"
                        ),
                    );
                }
                _ => {}
            },
            _ => {}
        }
    }
}

/// Whether token `idx` is `random` in a `rand::random` path.
fn path_is_rand(tokens: &[Tok], idx: usize) -> bool {
    idx >= 2
        && tokens[idx - 1].kind == TokKind::PathSep
        && matches!(&tokens[idx - 2].kind, TokKind::Ident(p) if p == "rand")
}

/// Whether token `idx` is a method call (preceded by `.`).
fn follows_dot(tokens: &[Tok], idx: usize) -> bool {
    idx >= 1 && tokens[idx - 1].kind == TokKind::Dot
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(scan: &FileScan) -> Vec<(&str, u32)> {
        scan.findings
            .iter()
            .map(|f| (f.rule.as_str(), f.line))
            .collect()
    }

    #[test]
    fn code_outside_regions_is_never_flagged() {
        let src = "fn free() -> f32 { 1.0f32.mul_add(2.0, 3.0) }\n";
        assert!(scan_source("t.rs", src).findings.is_empty());
    }

    #[test]
    fn floats_inside_a_critical_fn_are_flagged() {
        let src = "\
// wgft-audit: consensus-critical
fn seed(x: u64) -> u64 {
    let y = x as f32;
    (y as u64).wrapping_mul(3)
}
fn after() -> f64 { 2.5 }
";
        let scan = scan_source("t.rs", src);
        assert_eq!(rules_of(&scan), vec![("float-arith", 3)]);
        assert_eq!(scan.regions, vec![Region { start: 1, end: 5 }]);
    }

    #[test]
    fn inner_marker_covers_the_whole_file() {
        let src = "//! wgft-audit: consensus-critical\nfn f() -> f64 { 0.5 }\n";
        let scan = scan_source("t.rs", src);
        assert_eq!(
            rules_of(&scan),
            vec![("float-arith", 2), ("float-arith", 2)],
            "both the f64 type and the literal"
        );
    }

    #[test]
    fn blessed_suppresses_named_rules_only() {
        let src = "\
// wgft-audit: consensus-critical
mod det {
    // wgft-audit: blessed(float-arith) -- reference det kernel is f32 by contract
    fn kernel(a: f32) -> f32 {
        a.mul_add(2.0, 1.0)
    }
}
";
        let scan = scan_source("t.rs", src);
        // Floats are blessed; the FMA inside the blessed region still fires.
        assert_eq!(rules_of(&scan), vec![("fma", 5)]);
    }

    #[test]
    fn blessed_without_justification_is_an_annotation_error() {
        let src = "\
// wgft-audit: consensus-critical
// wgft-audit: blessed(float-arith)
fn f() {}
";
        let scan = scan_source("t.rs", src);
        assert_eq!(rules_of(&scan), vec![("audit-annotation", 2)]);
    }

    #[test]
    fn unknown_annotations_are_errors() {
        let src = "// wgft-audit: concensus-critical\nfn f() {}\n";
        let scan = scan_source("t.rs", src);
        assert_eq!(rules_of(&scan), vec![("audit-annotation", 1)]);
    }

    #[test]
    fn hash_time_rng_and_rayon_rules_fire() {
        let src = "\
// wgft-audit: consensus-critical
fn bad(xs: &[u64]) -> u64 {
    let m = HashMap::new();
    let t = Instant::now();
    let mut rng = thread_rng();
    let s: u64 = xs.par_iter().sum();
    m.len() as u64
}
";
        let scan = scan_source("t.rs", src);
        assert_eq!(
            rules_of(&scan),
            vec![
                ("hash-iteration", 3),
                ("wall-clock", 4),
                ("unseeded-rng", 5),
                ("rayon-reduction", 6),
            ]
        );
        let wall = &scan.findings[1];
        assert_eq!(wall.severity, SEVERITY_WARN);
        assert_eq!(scan.findings[0].severity, SEVERITY_DENY);
    }

    #[test]
    fn serial_sum_is_not_a_rayon_reduction() {
        let src = "\
// wgft-audit: consensus-critical
fn ok(xs: &[u64]) -> u64 {
    xs.iter().sum()
}
";
        assert!(scan_source("t.rs", src).findings.is_empty());
    }

    #[test]
    fn det_wrapper_calls_are_not_flagged() {
        // `dot_f32_len` is one identifier — the `f32` inside it is not a
        // float-arith token, which is exactly what makes calling blessed
        // wrappers from critical regions legal.
        let src = "\
// wgft-audit: consensus-critical
fn run(a: &[i32]) -> i64 {
    dot_f32_len(a)
}
";
        assert!(scan_source("t.rs", src).findings.is_empty());
    }

    #[test]
    fn braceless_items_end_at_the_semicolon() {
        let src = "\
// wgft-audit: consensus-critical
const SEED: u64 = 7;
fn later() -> f32 { 1.5 }
";
        let scan = scan_source("t.rs", src);
        assert!(scan.findings.is_empty());
        assert_eq!(scan.regions, vec![Region { start: 1, end: 2 }]);
    }

    #[test]
    fn fingerprints_are_stable_across_line_shifts() {
        let a = scan_source(
            "t.rs",
            "// wgft-audit: consensus-critical\nfn f() -> f64 { 0.5 }\n",
        );
        let b = scan_source(
            "t.rs",
            "\n\n\n// wgft-audit: consensus-critical\nfn f() -> f64 { 0.5 }\n",
        );
        let fa: Vec<_> = a.findings.iter().map(|f| &f.fingerprint).collect();
        let fb: Vec<_> = b.findings.iter().map(|f| &f.fingerprint).collect();
        assert_eq!(fa, fb);
    }
}
