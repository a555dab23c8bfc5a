//! Shared `.cqa` file loading and diagnostic rendering.
//!
//! Both front ends that accept `.cqa` programs from disk — the `cqa-lint`
//! CLI and the `cqa-serve` `--preload` startup gate — go through these
//! helpers, so a program rejected by one is rejected by the other with the
//! same rustc-style output.

use crate::{analyze_source, Analysis, AnalyzerConfig, GammaStatus, Program};

/// A `.cqa` file read from disk and run through the full static-analysis
/// pipeline (scope, fragment/schema, Σ-discipline, cost/VC estimation).
pub struct LintedFile {
    /// Display label (the path as given).
    pub file: String,
    /// Raw source text.
    pub src: String,
    /// Parsed program (best-effort when there are errors).
    pub program: Program,
    /// Analysis verdicts and diagnostics.
    pub analysis: Analysis,
}

impl LintedFile {
    /// `true` iff the analyzer found hard errors.
    pub fn has_errors(&self) -> bool {
        self.analysis.has_errors()
    }

    /// Rustc-style diagnostics with source excerpts; empty when clean.
    pub fn diagnostics(&self) -> String {
        self.analysis.render(&self.src, &self.file)
    }

    /// Per-statement fragment/cost summary lines plus the closing
    /// `N error(s), M warning(s)` line.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for r in &self.analysis.reports {
            let cost = r.cost.map_or(String::new(), |c| {
                format!(
                    ", C = {:.1}, VC ≤ {:.1}, KM ≈ {:.2e} atoms / {:.2e} quantifiers",
                    c.gj_constant, c.vc_bound, c.km.atoms, c.km.quantifiers
                )
            });
            let gamma = match r.gamma {
                Some(GammaStatus::Certified) => ", γ certified",
                Some(GammaStatus::Fallback) => ", γ falls back to semantic check",
                None => "",
            };
            out.push_str(&format!(
                "{}: {} `{}`: {}, {} atom(s), {} quantifier(s), degree {}{}{}\n",
                self.file,
                r.kind,
                r.name,
                r.fragment.fragment_name(),
                r.fragment.atoms,
                r.fragment.quantifiers,
                r.fragment.max_degree,
                cost,
                gamma
            ));
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s)",
            self.file,
            self.analysis.error_count(),
            self.analysis.warning_count()
        ));
        out
    }
}

/// Reads `path` and runs the analyzer over it. `Err` only for I/O
/// failures; analysis errors are reported inside the returned value.
pub fn lint_file(path: &str, cfg: &AnalyzerConfig) -> Result<LintedFile, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (program, analysis) = analyze_source(&src, cfg);
    Ok(LintedFile {
        file: path.to_string(),
        src,
        program,
        analysis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_file_reports_missing_file_and_lints_real_ones() {
        assert!(lint_file("/nonexistent/x.cqa", &AnalyzerConfig::default()).is_err());
        let lf = lint_file(
            "../../examples/lint/endpoints.cqa",
            &AnalyzerConfig::default(),
        )
        .expect("example program");
        assert!(!lf.has_errors(), "{}", lf.diagnostics());
        assert!(lf.summary().contains("error(s)"));
        let bad = lint_file("../../examples/lint/broken.cqa", &AnalyzerConfig::default())
            .expect("example program");
        assert!(bad.has_errors());
        assert!(!bad.diagnostics().is_empty());
    }
}
