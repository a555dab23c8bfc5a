//! Pass 1 — scope and variable analysis over the spanned parse tree.
//!
//! Reports unbound variables (CQA001), quantifiers that shadow an outer
//! binding or parameter (CQA002), and binders whose body never uses them
//! (CQA003). Operates on [`SpannedFormula`] so every finding carries the
//! byte span of the construct the user actually wrote.

use crate::diag::{Code, Diagnostic};
use cqa_logic::{BoundVar, SpannedFormula, SpannedNode, VarMap};
use cqa_poly::{MPoly, Var};

/// Checks `f` with the ambient parameters `params` in scope, appending
/// findings to `diags`. `vars` supplies human names for messages.
pub fn check_scopes(
    f: &SpannedFormula,
    params: &[Var],
    vars: &VarMap,
    diags: &mut Vec<Diagnostic>,
) {
    let mut env: Vec<Var> = params.to_vec();
    walk(f, &mut env, vars, diags);
}

fn walk(f: &SpannedFormula, env: &mut Vec<Var>, vars: &VarMap, diags: &mut Vec<Diagnostic>) {
    match &f.node {
        SpannedNode::True | SpannedNode::False => {}
        SpannedNode::Atom(a) => report_unbound(&a.poly, f, env, vars, diags),
        SpannedNode::Rel { args, .. } => {
            for t in args {
                report_unbound(t, f, env, vars, diags);
            }
        }
        SpannedNode::Not(g) => walk(g, env, vars, diags),
        SpannedNode::And(gs) | SpannedNode::Or(gs) => {
            for g in gs {
                walk(g, env, vars, diags);
            }
        }
        SpannedNode::Exists(vs, g) | SpannedNode::Forall(vs, g) => {
            bind_block(vs, g, env, vars, diags);
        }
        SpannedNode::ExistsAdom(v, g) | SpannedNode::ForallAdom(v, g) => {
            bind_block(std::slice::from_ref(v), g, env, vars, diags);
        }
    }
}

fn bind_block(
    vs: &[BoundVar],
    body: &SpannedFormula,
    env: &mut Vec<Var>,
    vars: &VarMap,
    diags: &mut Vec<Diagnostic>,
) {
    // Free variables of the *lowered* body: occurrences under an inner
    // rebinding of the same name are correctly not free here, so an outer
    // binder they hide is genuinely unused.
    let body_free = body.to_formula().free_vars();
    for b in vs {
        if env.contains(&b.var) {
            diags.push(
                Diagnostic::new(
                    Code::ShadowedBinder,
                    b.span,
                    format!("quantifier shadows `{}` already in scope", vars.name(b.var)),
                )
                .with_note("the outer binding is unreachable inside this quantifier's body"),
            );
        }
        if !body_free.contains(&b.var) {
            diags.push(Diagnostic::new(
                Code::UnusedBinder,
                b.span,
                format!("bound variable `{}` is never used", vars.name(b.var)),
            ));
        }
        env.push(b.var);
    }
    walk(body, env, vars, diags);
    env.truncate(env.len() - vs.len());
}

/// One report per unbound variable of `p`, in variable order. The list
/// stays empty, and allocates nothing, when every variable is in scope.
fn report_unbound(
    p: &MPoly,
    f: &SpannedFormula,
    env: &[Var],
    vars: &VarMap,
    diags: &mut Vec<Diagnostic>,
) {
    let mut unbound: Vec<Var> = p.var_occurrences().filter(|v| !env.contains(v)).collect();
    unbound.sort_unstable();
    unbound.dedup();
    for v in unbound {
        diags.push(
            Diagnostic::new(
                Code::UnboundVariable,
                f.span,
                format!("unbound variable `{}`", vars.name(v)),
            )
            .with_note("declare it as a parameter or bind it with a quantifier"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_logic::parse_formula_spanned;

    fn analyze(src: &str, params: &[&str]) -> (Vec<Diagnostic>, VarMap) {
        let mut vars = VarMap::new();
        let ps: Vec<Var> = params.iter().map(|p| vars.intern(p)).collect();
        let f = parse_formula_spanned(src, &mut vars).unwrap();
        let mut diags = Vec::new();
        check_scopes(&f, &ps, &vars, &mut diags);
        (diags, vars)
    }

    #[test]
    fn well_scoped_formulas_are_clean() {
        let (d, _) = analyze("exists y. x = y + 1 & y > 0", &["x"]);
        assert!(d.is_empty(), "{d:?}");
        let (d, _) = analyze("forall u v. u + v > 0 | u < v", &[]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unbound_variables_are_flagged_with_spans() {
        let src = "x = z + 1";
        let (d, _) = analyze(src, &["x"]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::UnboundVariable);
        assert!(d[0].message.contains("`z`"));
        // The span covers the offending atom.
        assert_eq!(&src[d[0].span.start..d[0].span.end], "x = z + 1");
        // One report per unbound variable of an atom, in variable order,
        // however many of its monomials mention it.
        let (d, _) = analyze("z*w + z + w*w > x", &["x"]);
        let messages: Vec<&str> = d.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(messages, ["unbound variable `z`", "unbound variable `w`"]);
    }

    #[test]
    fn shadowing_and_unused_binders() {
        let src = "exists x. exists x. x > 0";
        let (d, _) = analyze(src, &[]);
        let codes: Vec<Code> = d.iter().map(|x| x.code).collect();
        assert!(codes.contains(&Code::ShadowedBinder));
        // The outer x is hidden by the inner binder, hence unused.
        assert!(codes.contains(&Code::UnusedBinder));
        // The shadow span points at the second binder occurrence.
        let shadow = d.iter().find(|x| x.code == Code::ShadowedBinder).unwrap();
        assert_eq!(shadow.span.start, src.rfind("x. x >").unwrap());
    }

    #[test]
    fn unused_binder_flagged() {
        let (d, _) = analyze("exists y. x > 0", &["x"]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::UnusedBinder);
    }

    #[test]
    fn adom_quantifiers_are_scoped_too() {
        let (d, _) = analyze("Eadom y. R(y) & z > 0", &[]);
        let codes: Vec<Code> = d.iter().map(|x| x.code).collect();
        assert!(codes.contains(&Code::UnboundVariable));
    }
}
