//! The stable diagnostic-code catalog.
//!
//! Every finding this crate can emit carries a code from this table;
//! codes are append-only and never reused, so downstream tooling (CI
//! filters, the bench CLI, golden snapshots) can match on them across
//! versions. The human-facing catalog lives in `LINTS.md` at the
//! repository root; the `catalog_covers_every_emitted_code` test keeps
//! source, table, and document in sync.

/// One catalog entry: a stable code and its one-line meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    /// The stable code, e.g. `"SP-G003"`.
    pub code: &'static str,
    /// Whether findings with this code are errors or warnings.
    pub severity: crate::Severity,
    /// One-line summary of what the code means.
    pub summary: &'static str,
}

use crate::Severity::{Error, Warning};

/// Every diagnostic code this crate can emit, grouped by family.
pub const CATALOG: &[CodeInfo] = &[
    // SP-G: graph well-formedness
    CodeInfo {
        code: "SP-G001",
        severity: Error,
        summary: "op or carry references a tensor id the graph does not contain",
    },
    CodeInfo {
        code: "SP-G002",
        severity: Error,
        summary: "topological order references a nonexistent op",
    },
    CodeInfo {
        code: "SP-G003",
        severity: Error,
        summary: "tensor is produced by more than one op (SSA violation)",
    },
    CodeInfo {
        code: "SP-G004",
        severity: Error,
        summary: "tensor role contradicts its producer (produced without one, or vice versa)",
    },
    CodeInfo {
        code: "SP-G005",
        severity: Error,
        summary: "topological order duplicates or omits ops",
    },
    CodeInfo {
        code: "SP-G006",
        severity: Error,
        summary: "topological order schedules a consumer before its producer",
    },
    CodeInfo {
        code: "SP-G007",
        severity: Error,
        summary: "dependence cycle not broken by a loop-carried edge",
    },
    CodeInfo {
        code: "SP-G008",
        severity: Error,
        summary: "loop-carry edge violates the kind/role carry rules",
    },
    // SP-S: shape & semiring consistency
    CodeInfo {
        code: "SP-S001",
        severity: Error,
        summary: "operand kind/shape is incompatible with the operator's signature",
    },
    CodeInfo {
        code: "SP-S002",
        severity: Error,
        summary: "operator has the wrong number of operands",
    },
    CodeInfo {
        code: "SP-S003",
        severity: Error,
        summary: "operator's semiring fails its algebraic identity probes",
    },
    CodeInfo {
        code: "SP-S004",
        severity: Warning,
        summary: "e-wise immediate operand is non-finite",
    },
    CodeInfo {
        code: "SP-S005",
        severity: Warning,
        summary:
            "loop-input sparse matrix is never carried into (de facto constant, forfeits reuse)",
    },
    // SP-O: OEI fusion-legality oracle cross-check
    CodeInfo {
        code: "SP-O001",
        severity: Error,
        summary: "analysis claims an OEI fusion the independent oracle finds illegal",
    },
    CodeInfo {
        code: "SP-O002",
        severity: Error,
        summary: "oracle finds a legal OEI fusion the analysis missed",
    },
    CodeInfo {
        code: "SP-O003",
        severity: Error,
        summary: "analysis and oracle disagree on the cross_iteration flag",
    },
    CodeInfo {
        code: "SP-O004",
        severity: Error,
        summary: "fused op pair is not a legal OEI pairing per the oracle",
    },
    CodeInfo {
        code: "SP-O005",
        severity: Error,
        summary: "reported fusion path is malformed (dependency, taint, or carry-count violation)",
    },
    CodeInfo {
        code: "SP-O006",
        severity: Error,
        summary: "side-operand taint set disagrees between oracle and analysis",
    },
    // SP-P: pass-plan feasibility
    CodeInfo {
        code: "SP-P007",
        severity: Warning,
        summary: "per-step working set approaches or exceeds the buffer capacity",
    },
    // SP-E: sparse-einsum front door
    CodeInfo {
        code: "SP-E001",
        severity: Error,
        summary: "expression fails to lex or parse (syntax violation)",
    },
    CodeInfo {
        code: "SP-E002",
        severity: Error,
        summary: "unknown semiring, function, or reduction name",
    },
    CodeInfo {
        code: "SP-E003",
        severity: Error,
        summary: "index count or operand kind is inconsistent with the tensor",
    },
    CodeInfo {
        code: "SP-E004",
        severity: Error,
        summary: "contraction index structure matches no operator",
    },
    CodeInfo {
        code: "SP-E005",
        severity: Error,
        summary: "program structure fails to lower (reassignment, bad carry, cycle)",
    },
    CodeInfo {
        code: "SP-E006",
        severity: Warning,
        summary: "no matrix contraction: the program compiles to no OS/IS pass",
    },
    CodeInfo {
        code: "SP-E007",
        severity: Warning,
        summary: "declared tensor or produced result is never used",
    },
    // SP-C: static cost & reuse analysis
    CodeInfo {
        code: "SP-C001",
        severity: Warning,
        summary: "OEI fusion is legal but statically unprofitable on the analyzed matrix",
    },
    CodeInfo {
        code: "SP-C002",
        severity: Warning,
        summary: "buffer capacity statically guarantees eviction thrashing",
    },
    CodeInfo {
        code: "SP-C003",
        severity: Warning,
        summary: "fusion adds vector traffic; profitable only above a matrix-density break-even",
    },
    CodeInfo {
        code: "SP-C004",
        severity: Warning,
        summary: "SpGEMM expansion pressure: intermediate or accumulator statically dominates",
    },
];

/// Codes removed from [`CATALOG`]. Codes are never reused, so none of
/// these may return to the catalog or be emitted again.
///
/// SP-P001–SP-P006 re-checked `PassPlan`'s arrays against each other;
/// the plan's fields are private and its invariants hold by construction.
pub const RETIRED: &[&str] = &[
    "SP-P001", "SP-P002", "SP-P003", "SP-P004", "SP-P005", "SP-P006",
];

/// Looks up a code's catalog entry.
#[must_use]
pub fn lookup(code: &str) -> Option<&'static CodeInfo> {
    CATALOG.iter().find(|info| info.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for info in CATALOG {
            assert!(
                seen.insert(info.code),
                "duplicate catalog code {}",
                info.code
            );
            let bytes = info.code.as_bytes();
            assert_eq!(bytes.len(), 7, "{} is not SP-Xnnn", info.code);
            assert!(info.code.starts_with("SP-"), "{}", info.code);
            assert!(bytes[3].is_ascii_uppercase(), "{}", info.code);
            assert!(bytes[4..].iter().all(u8::is_ascii_digit), "{}", info.code);
            assert!(!info.summary.is_empty());
        }
    }

    /// Extracts every `"SP-Xnnn"` string literal from a source file.
    fn codes_in(text: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (i, _) in text.match_indices("\"SP-") {
            let lit = &text[i + 1..];
            if lit.len() >= 8 && lit.as_bytes()[7] == b'"' {
                let code = &lit[..7];
                let b = code.as_bytes();
                if b[3].is_ascii_uppercase() && b[4..7].iter().all(u8::is_ascii_digit) {
                    out.insert(code.to_string());
                }
            }
        }
        out
    }

    #[test]
    fn catalog_covers_every_emitted_code() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut emitted = BTreeSet::new();
        for entry in std::fs::read_dir(&src).unwrap() {
            let path = entry.unwrap().path();
            // this file names every code without emitting any
            if path.extension().is_some_and(|e| e == "rs") && !path.ends_with("codes.rs") {
                emitted.extend(codes_in(&std::fs::read_to_string(&path).unwrap()));
            }
        }
        let cataloged: BTreeSet<String> = CATALOG.iter().map(|i| i.code.to_string()).collect();
        let missing: Vec<_> = emitted.difference(&cataloged).collect();
        assert!(
            missing.is_empty(),
            "codes used in src/ but absent from the catalog: {missing:?}"
        );
        let stale: Vec<_> = cataloged.difference(&emitted).collect();
        assert!(
            stale.is_empty(),
            "catalog codes no check ever emits: {stale:?}"
        );
    }

    #[test]
    fn retired_codes_stay_retired() {
        for code in RETIRED {
            assert!(lookup(code).is_none(), "retired {code} is back in CATALOG");
        }
        let unique: BTreeSet<_> = RETIRED.iter().collect();
        assert_eq!(unique.len(), RETIRED.len(), "duplicate retired code");
    }

    #[test]
    fn lints_md_documents_every_code() {
        let doc = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../LINTS.md");
        let text =
            std::fs::read_to_string(&doc).expect("LINTS.md must exist at the repository root");
        for info in CATALOG {
            assert!(
                text.contains(info.code),
                "{} is not documented in LINTS.md",
                info.code
            );
        }
    }

    #[test]
    fn lookup_finds_known_codes() {
        let info = lookup("SP-C001").unwrap();
        assert_eq!(info.severity, crate::Severity::Warning);
        assert!(lookup("SP-unknown").is_none());
    }
}
