//! Hash-consed formula IR: an interning arena for [`Formula`] dags.
//!
//! The boxed [`Formula`] tree is the right interchange type — easy to build,
//! pattern-match, and print — but it is the wrong *working* representation
//! for quantifier elimination: FM/Hörmander output is exponentially large
//! precisely because it repeats the same subformulas over and over
//! (Lemma 1's blow-up is duplication, not novelty), and a tree stores every
//! copy. Following the straight-line/dag discipline of Giusti–Heintz, this
//! module interns formulas into an [`Arena`]:
//!
//! * **Hash-consing** — structurally equal nodes get the *same*
//!   [`FormulaId`]; structural equality becomes a pointer-width integer
//!   compare, and memo tables key on ids instead of O(size) trees.
//! * **Cached metadata** — free variables, atom/quantifier counts, depth,
//!   max degree, and the constraint-class bit are computed once at intern
//!   time (O(1) amortized per node) and shared by every consumer
//!   (simplifier, analyzer, compiler) instead of re-walking the tree.
//! * **128-bit structural hash** — a deterministic FNV-1a-128 digest of the
//!   node's exact structure, cheap to combine bottom-up.
//! * **Canonical hash** — [`Arena::canonical_hash_for_params`] is the one
//!   cache key: invariant under commutativity of `∧`/`∨`, bound-variable
//!   renaming (de-Bruijn numbering), positive atom scaling and the order
//!   sessions interned their parameters in (positional parameters), and
//!   computed without rendering a string, so the engine's warm EXEC path
//!   keys a request with zero allocation.
//!
//! The bridge to the boxed world is lossless: `extern_formula(intern(f))`
//! reconstructs `f` exactly (no normalization happens on intern), and
//! `intern(extern_formula(id)) == id` because interning is structural.

use crate::ast::{is_order_atom, Atom, ConstraintClass, Formula, Rel};
use cqa_arith::Rat;
use cqa_poly::{MPoly, Var};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Id of an interned polynomial term in an [`Arena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

/// Id of an interned formula node in an [`Arena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FormulaId(pub u32);

/// Id of an interned relation name in an [`Arena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(pub u32);

/// One formula node; children are ids, so structurally equal subtrees are
/// physically shared. Mirrors [`Formula`] constructor-for-constructor.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Node {
    /// ⊤.
    True,
    /// ⊥.
    False,
    /// Sign condition `p ⋈ 0`.
    Atom { poly: TermId, rel: Rel },
    /// Schema-relation atom `R(t₁, …, tₖ)`.
    Rel { name: NameId, args: Vec<TermId> },
    /// Negation.
    Not(FormulaId),
    /// n-ary conjunction (empty = ⊤).
    And(Vec<FormulaId>),
    /// n-ary disjunction (empty = ⊥).
    Or(Vec<FormulaId>),
    /// Natural (real) existential block.
    Exists(Vec<Var>, FormulaId),
    /// Natural (real) universal block.
    Forall(Vec<Var>, FormulaId),
    /// Active-domain existential.
    ExistsAdom(Var, FormulaId),
    /// Active-domain universal.
    ForallAdom(Var, FormulaId),
}

/// Metadata cached per interned node, computed once at intern time.
///
/// The counts use *tree* semantics (a shared subnode counts once per
/// occurrence, saturating at `u64::MAX`) so they agree with the boxed
/// walkers ([`Formula::atom_count`], [`Formula::quantifier_count`]) that the
/// analyzer's reports were calibrated against — a dag can be exponentially
/// smaller than the tree it denotes, which is the whole point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeMeta {
    /// 128-bit structural hash (exact structure, raw variable indices).
    pub hash: u128,
    /// Free variables, sorted ascending, deduplicated.
    pub free_vars: Vec<Var>,
    /// Tree depth (leaves = 1).
    pub depth: u32,
    /// Sign-condition atoms in the denoted tree.
    pub sign_atoms: u64,
    /// Relation-atom occurrences in the denoted tree.
    pub rel_atoms: u64,
    /// Quantified variables (natural + active-domain, with multiplicity).
    pub quantifiers: u64,
    /// Active-domain quantifier nodes among them.
    pub adom_quantifiers: u64,
    /// Maximum total degree over atom polynomials and relation arguments.
    pub max_degree: u32,
    /// Constraint class of the sign-condition atoms (relations don't count).
    pub class: ConstraintClass,
    /// No quantifier of either kind below this node.
    pub quantifier_free: bool,
    /// Distinct relation names mentioned, sorted by id.
    pub relations: Vec<NameId>,
}

impl NodeMeta {
    /// Atoms of either kind — matches [`Formula::atom_count`].
    pub fn atom_count(&self) -> u64 {
        self.sign_atoms.saturating_add(self.rel_atoms)
    }
}

/// Metadata cached per interned term.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TermMeta {
    /// 128-bit structural hash of the polynomial.
    hash: u128,
    /// Variables, sorted ascending.
    vars: Vec<Var>,
    /// Total degree (0 for constants and the zero polynomial).
    total_degree: u32,
    /// Constraint class this term would induce as a sign-condition atom.
    class_if_atom: ConstraintClass,
}

/// Occupancy and dedup counters for an [`Arena`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Distinct formula nodes stored.
    pub nodes: u64,
    /// Distinct polynomial terms stored.
    pub terms: u64,
    /// Node intern requests served (hits + misses).
    pub intern_calls: u64,
    /// Term intern requests served (hits + misses).
    pub term_intern_calls: u64,
}

impl ArenaStats {
    /// Intern calls per stored node — `> 1` means hash-consing found sharing.
    pub fn dedup_ratio(&self) -> f64 {
        if self.nodes == 0 {
            1.0
        } else {
            self.intern_calls as f64 / self.nodes as f64
        }
    }
}

/// The interning arena. See the module docs.
#[derive(Debug, Default)]
pub struct Arena {
    terms: Vec<MPoly>,
    term_meta: Vec<TermMeta>,
    term_ids: HashMap<MPoly, TermId>,
    nodes: Vec<Node>,
    meta: Vec<NodeMeta>,
    node_ids: HashMap<Node, FormulaId>,
    rel_names: Vec<String>,
    name_ids: HashMap<String, NameId>,
    intern_calls: u64,
    term_intern_calls: u64,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Arena {
        Arena::default()
    }

    /// Interns a boxed formula tree, bottom-up. Structurally equal subtrees
    /// collapse to one id; nothing is normalized, so
    /// `extern_formula(intern(f))` reproduces `f` exactly.
    pub fn intern(&mut self, f: &Formula) -> FormulaId {
        match f {
            Formula::True => self.intern_node(Node::True),
            Formula::False => self.intern_node(Node::False),
            Formula::Atom(a) => {
                let poly = self.intern_term(&a.poly);
                self.intern_node(Node::Atom { poly, rel: a.rel })
            }
            Formula::Rel { name, args } => {
                let name = self.intern_name(name);
                let args = args.iter().map(|t| self.intern_term(t)).collect();
                self.intern_node(Node::Rel { name, args })
            }
            Formula::Not(g) => {
                let g = self.intern(g);
                self.intern_node(Node::Not(g))
            }
            Formula::And(fs) => {
                let fs = fs.iter().map(|g| self.intern(g)).collect();
                self.intern_node(Node::And(fs))
            }
            Formula::Or(fs) => {
                let fs = fs.iter().map(|g| self.intern(g)).collect();
                self.intern_node(Node::Or(fs))
            }
            Formula::Exists(vs, g) => {
                let g = self.intern(g);
                self.intern_node(Node::Exists(vs.clone(), g))
            }
            Formula::Forall(vs, g) => {
                let g = self.intern(g);
                self.intern_node(Node::Forall(vs.clone(), g))
            }
            Formula::ExistsAdom(v, g) => {
                let g = self.intern(g);
                self.intern_node(Node::ExistsAdom(*v, g))
            }
            Formula::ForallAdom(v, g) => {
                let g = self.intern(g);
                self.intern_node(Node::ForallAdom(*v, g))
            }
        }
    }

    /// Interns one node whose children are already interned.
    pub fn intern_node(&mut self, node: Node) -> FormulaId {
        self.intern_calls += 1;
        if let Some(&id) = self.node_ids.get(&node) {
            return id;
        }
        let meta = self.compute_meta(&node);
        let id = FormulaId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        self.node_ids.insert(node.clone(), id);
        self.nodes.push(node);
        self.meta.push(meta);
        id
    }

    /// Interns one polynomial term.
    pub fn intern_term(&mut self, p: &MPoly) -> TermId {
        self.term_intern_calls += 1;
        if let Some(&id) = self.term_ids.get(p) {
            return id;
        }
        let mut h = Fnv128::new();
        p.hash(&mut h);
        let meta = TermMeta {
            hash: h.finish128(),
            vars: {
                let mut vars: Vec<Var> = p.var_occurrences().collect();
                vars.sort_unstable();
                vars.dedup();
                vars
            },
            total_degree: p.total_degree().unwrap_or(0),
            class_if_atom: if !p.is_affine() {
                ConstraintClass::Polynomial
            } else if is_order_atom(p) {
                ConstraintClass::DenseOrder
            } else {
                ConstraintClass::Linear
            },
        };
        let id = TermId(u32::try_from(self.terms.len()).expect("arena overflow"));
        self.term_ids.insert(p.clone(), id);
        self.terms.push(p.clone());
        self.term_meta.push(meta);
        id
    }

    /// Interns a relation name.
    pub fn intern_name(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = NameId(u32::try_from(self.rel_names.len()).expect("arena overflow"));
        self.name_ids.insert(name.to_string(), id);
        self.rel_names.push(name.to_string());
        id
    }

    /// Reconstructs the exact boxed tree denoted by `id`.
    pub fn extern_formula(&self, id: FormulaId) -> Formula {
        match self.node(id) {
            Node::True => Formula::True,
            Node::False => Formula::False,
            Node::Atom { poly, rel } => Formula::Atom(Atom {
                poly: self.term(*poly).clone(),
                rel: *rel,
            }),
            Node::Rel { name, args } => Formula::Rel {
                name: self.rel_name(*name).to_string(),
                args: args.iter().map(|&t| self.term(t).clone()).collect(),
            },
            Node::Not(g) => Formula::Not(Box::new(self.extern_formula(*g))),
            Node::And(fs) => Formula::And(fs.iter().map(|&g| self.extern_formula(g)).collect()),
            Node::Or(fs) => Formula::Or(fs.iter().map(|&g| self.extern_formula(g)).collect()),
            Node::Exists(vs, g) => Formula::Exists(vs.clone(), Box::new(self.extern_formula(*g))),
            Node::Forall(vs, g) => Formula::Forall(vs.clone(), Box::new(self.extern_formula(*g))),
            Node::ExistsAdom(v, g) => Formula::ExistsAdom(*v, Box::new(self.extern_formula(*g))),
            Node::ForallAdom(v, g) => Formula::ForallAdom(*v, Box::new(self.extern_formula(*g))),
        }
    }

    /// The node behind an id.
    pub fn node(&self, id: FormulaId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The cached metadata behind an id.
    pub fn meta(&self, id: FormulaId) -> &NodeMeta {
        &self.meta[id.0 as usize]
    }

    /// The polynomial behind a term id.
    pub fn term(&self, id: TermId) -> &MPoly {
        &self.terms[id.0 as usize]
    }

    /// The relation name behind a name id.
    pub fn rel_name(&self, id: NameId) -> &str {
        &self.rel_names[id.0 as usize]
    }

    /// The 128-bit structural hash of `id` (exact structure, raw variable
    /// indices — use [`Arena::canonical_hash_for_params`] for cache keys).
    pub fn structural_hash(&self, id: FormulaId) -> u128 {
        self.meta(id).hash
    }

    /// Occupancy and dedup counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            nodes: self.nodes.len() as u64,
            terms: self.terms.len() as u64,
            intern_calls: self.intern_calls,
            term_intern_calls: self.term_intern_calls,
        }
    }

    fn compute_meta(&self, node: &Node) -> NodeMeta {
        let mut h = Fnv128::new();
        match node {
            Node::True => {
                h.write_u8(TAG_TRUE);
                NodeMeta {
                    hash: h.finish128(),
                    ..leaf_meta()
                }
            }
            Node::False => {
                h.write_u8(TAG_FALSE);
                NodeMeta {
                    hash: h.finish128(),
                    ..leaf_meta()
                }
            }
            Node::Atom { poly, rel } => {
                let tm = &self.term_meta[poly.0 as usize];
                h.write_u8(TAG_ATOM);
                h.write_u8(*rel as u8);
                h.write_u128(tm.hash);
                NodeMeta {
                    hash: h.finish128(),
                    free_vars: tm.vars.clone(),
                    sign_atoms: 1,
                    max_degree: tm.total_degree,
                    class: tm.class_if_atom,
                    ..leaf_meta()
                }
            }
            Node::Rel { name, args } => {
                h.write_u8(TAG_REL);
                // Hash the name *string*, not the arena-local id, so
                // structural hashes agree across arenas.
                let s = self.rel_name(*name);
                h.write_usize(s.len());
                h.write(s.as_bytes());
                h.write_usize(args.len());
                let metas = || args.iter().map(|t| &self.term_meta[t.0 as usize]);
                let free = union(metas().map(|tm| tm.vars.as_slice()));
                let mut max_degree = 0;
                for tm in metas() {
                    h.write_u128(tm.hash);
                    max_degree = max_degree.max(tm.total_degree);
                }
                NodeMeta {
                    hash: h.finish128(),
                    free_vars: free,
                    rel_atoms: 1,
                    max_degree,
                    relations: vec![*name],
                    ..leaf_meta()
                }
            }
            Node::Not(g) => {
                let cm = self.meta(*g);
                h.write_u8(TAG_NOT);
                h.write_u128(cm.hash);
                NodeMeta {
                    hash: h.finish128(),
                    ..up(cm, cm.free_vars.clone())
                }
            }
            Node::And(fs) | Node::Or(fs) => {
                h.write_u8(if matches!(node, Node::And(_)) {
                    TAG_AND
                } else {
                    TAG_OR
                });
                h.write_usize(fs.len());
                let metas = || fs.iter().map(|&g| self.meta(g));
                let mut out = NodeMeta {
                    free_vars: union(metas().map(|cm| cm.free_vars.as_slice())),
                    relations: union(metas().map(|cm| cm.relations.as_slice())),
                    ..leaf_meta()
                };
                for cm in metas() {
                    h.write_u128(cm.hash);
                    out.depth = out.depth.max(cm.depth);
                    out.sign_atoms = out.sign_atoms.saturating_add(cm.sign_atoms);
                    out.rel_atoms = out.rel_atoms.saturating_add(cm.rel_atoms);
                    out.quantifiers = out.quantifiers.saturating_add(cm.quantifiers);
                    out.adom_quantifiers = out.adom_quantifiers.saturating_add(cm.adom_quantifiers);
                    out.max_degree = out.max_degree.max(cm.max_degree);
                    out.class = out.class.max(cm.class);
                    out.quantifier_free &= cm.quantifier_free;
                }
                out.depth += 1;
                out.hash = h.finish128();
                out
            }
            Node::Exists(vs, g) | Node::Forall(vs, g) => {
                let cm = self.meta(*g);
                h.write_u8(if matches!(node, Node::Exists(..)) {
                    TAG_EXISTS
                } else {
                    TAG_FORALL
                });
                h.write_usize(vs.len());
                for v in vs {
                    h.write_u32(v.0);
                }
                h.write_u128(cm.hash);
                let free = cm
                    .free_vars
                    .iter()
                    .filter(|v| !vs.contains(v))
                    .copied()
                    .collect();
                NodeMeta {
                    hash: h.finish128(),
                    quantifiers: cm.quantifiers.saturating_add(vs.len() as u64),
                    quantifier_free: false,
                    ..up(cm, free)
                }
            }
            Node::ExistsAdom(v, g) | Node::ForallAdom(v, g) => {
                let cm = self.meta(*g);
                h.write_u8(if matches!(node, Node::ExistsAdom(..)) {
                    TAG_EADOM
                } else {
                    TAG_AADOM
                });
                h.write_u32(v.0);
                h.write_u128(cm.hash);
                let free = cm.free_vars.iter().filter(|w| *w != v).copied().collect();
                NodeMeta {
                    hash: h.finish128(),
                    quantifiers: cm.quantifiers.saturating_add(1),
                    adom_quantifiers: cm.adom_quantifiers.saturating_add(1),
                    quantifier_free: false,
                    ..up(cm, free)
                }
            }
        }
    }

    /// A key for memoizing per-formula artifacts, invariant under
    /// commutativity of `∧`/`∨` (child digests are sorted), de-Bruijn
    /// numbering of bound variables (the innermost binder wins under
    /// shadowing), positive scaling of atoms (divided by the coefficient of
    /// the canonically largest monomial, the relation flipped when it is
    /// negative) and parameter order: variables in `params` are numbered by
    /// position, every other free variable keeps its index, because free
    /// variables are the query's identity. A 128-bit digest instead of a
    /// rendered string; no allocation proportional to formula size, the
    /// walk is O(dag) per call.
    ///
    /// Equal digests imply logically equivalent formulas up to the
    /// negligible 2⁻¹²⁸ collision probability of the digest (DESIGN.md §9).
    /// Deliberately incomplete: `x < 1 ∧ x < 2` and `x < 1` key differently.
    pub fn canonical_hash_for_params(&self, id: FormulaId, params: &[Var]) -> u128 {
        self.canon_hash(id, &mut Vec::new(), params)
    }

    /// The subplan memo key of a subformula: its canonical hash taken
    /// positionally over its own free variables in ascending `Var` order
    /// (the order [`NodeMeta::free_vars`] already stores), plus that
    /// parameter list. Two subformulas agreeing on this hash and on the
    /// parameter *count* are logically equivalent as predicates over their
    /// positional parameters (up to the digest's 2⁻¹²⁸ collision), so a
    /// quantifier-elimination result computed for one can be renamed
    /// positionally onto the other — the contract behind the engine's
    /// cross-query subplan sharing (see `cqa_qe::plan`).
    pub fn subplan_hash(&self, id: FormulaId) -> (u128, Vec<Var>) {
        let params = self.meta(id).free_vars.clone();
        (self.canonical_hash_for_params(id, &params), params)
    }

    fn canon_hash(&self, id: FormulaId, bound: &mut Vec<Var>, params: &[Var]) -> u128 {
        let mut h = Fnv128::new();
        match self.node(id) {
            Node::True => h.write_u8(TAG_TRUE),
            Node::False => h.write_u8(TAG_FALSE),
            Node::Atom { poly, rel } => {
                // Scale-normalize: divide by the coefficient of the
                // canonically largest monomial, flipping the relation when
                // it is negative. The terms are sorted
                // ascending, so the lead is the last coefficient.
                let ts = self.canon_terms(*poly, bound, params);
                let lead = ts.last().map(|(_, c)| *c);
                let rel = match lead {
                    Some(c) if c.signum() < 0 => rel.flip(),
                    _ => *rel,
                };
                h.write_u8(TAG_ATOM);
                h.write_u8(rel as u8);
                match lead {
                    // Already normalized: hash coefficients as they are,
                    // no rational arithmetic at all.
                    None => write_canon_terms(&mut h, &ts),
                    Some(c) if c.is_one() => write_canon_terms(&mut h, &ts),
                    Some(c) => {
                        let inv = c.recip();
                        h.write_usize(ts.len());
                        for (m, c) in &ts {
                            write_canon_monomial(&mut h, m);
                            (*c * &inv).hash(&mut h);
                        }
                    }
                }
            }
            Node::Rel { name, args } => {
                h.write_u8(TAG_REL);
                let s = self.rel_name(*name);
                h.write_usize(s.len());
                h.write(s.as_bytes());
                h.write_usize(args.len());
                for &t in args {
                    let ts = self.canon_terms(t, bound, params);
                    write_canon_terms(&mut h, &ts);
                }
            }
            Node::Not(g) => {
                h.write_u8(TAG_NOT);
                h.write_u128(self.canon_hash(*g, bound, params));
            }
            Node::And(fs) | Node::Or(fs) => {
                h.write_u8(if matches!(self.node(id), Node::And(_)) {
                    TAG_AND
                } else {
                    TAG_OR
                });
                h.write_usize(fs.len());
                let mut hs: Vec<u128> = fs
                    .iter()
                    .map(|&g| self.canon_hash(g, bound, params))
                    .collect();
                hs.sort_unstable();
                for x in hs {
                    h.write_u128(x);
                }
            }
            Node::Exists(vs, g) | Node::Forall(vs, g) => {
                h.write_u8(if matches!(self.node(id), Node::Exists(..)) {
                    TAG_EXISTS
                } else {
                    TAG_FORALL
                });
                h.write_usize(vs.len());
                let n = bound.len();
                bound.extend_from_slice(vs);
                h.write_u128(self.canon_hash(*g, bound, params));
                bound.truncate(n);
            }
            Node::ExistsAdom(v, g) | Node::ForallAdom(v, g) => {
                h.write_u8(if matches!(self.node(id), Node::ExistsAdom(..)) {
                    TAG_EADOM
                } else {
                    TAG_AADOM
                });
                bound.push(*v);
                h.write_u128(self.canon_hash(*g, bound, params));
                bound.pop();
            }
        }
        h.finish128()
    }

    /// The term's monomials with binder-relative variable tokens, sorted by
    /// canonical monomial (distinct raw variables map to distinct tokens, so
    /// canonical monomials stay distinct and the sort is total).
    /// Coefficients are borrowed — hashing a key must not clone rationals.
    fn canon_terms<'a>(
        &'a self,
        t: TermId,
        bound: &[Var],
        params: &[Var],
    ) -> Vec<(Vec<(CanonVar, u32)>, &'a Rat)> {
        let mut out: Vec<(Vec<(CanonVar, u32)>, &Rat)> = self
            .term(t)
            .terms()
            .map(|(mono, c)| {
                let mut m: Vec<(CanonVar, u32)> = mono
                    .iter()
                    .map(|&(v, e)| (canon_var(v, bound, params), e))
                    .collect();
                // Raw monomials are sorted by session-local Var index;
                // canonical tokens order differently — re-sort.
                m.sort_unstable();
                (m, c)
            })
            .collect();
        out.sort_unstable_by(|(m1, _), (m2, _)| m1.cmp(m2));
        out
    }
}

/// A variable token that is invariant across sessions: bound variables by
/// binder depth (innermost = 0), parameters by position, remaining free
/// variables by raw index (they are the query's identity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum CanonVar {
    Bound(u32),
    Param(u32),
    Free(u32),
}

fn canon_var(v: Var, bound: &[Var], params: &[Var]) -> CanonVar {
    match bound.iter().rposition(|b| *b == v) {
        Some(pos) => CanonVar::Bound((bound.len() - 1 - pos) as u32),
        None => match params.iter().position(|p| *p == v) {
            Some(pos) => CanonVar::Param(pos as u32),
            None => CanonVar::Free(v.0),
        },
    }
}

fn write_canon_var(h: &mut Fnv128, v: CanonVar) {
    match v {
        CanonVar::Bound(d) => {
            h.write_u8(0xB0);
            h.write_u32(d);
        }
        CanonVar::Param(i) => {
            h.write_u8(0xB1);
            h.write_u32(i);
        }
        CanonVar::Free(i) => {
            h.write_u8(0xB2);
            h.write_u32(i);
        }
    }
}

fn write_canon_monomial(h: &mut Fnv128, m: &[(CanonVar, u32)]) {
    h.write_usize(m.len());
    for &(v, e) in m {
        write_canon_var(h, v);
        h.write_u32(e);
    }
}

fn write_canon_terms(h: &mut Fnv128, ts: &[(Vec<(CanonVar, u32)>, &Rat)]) {
    h.write_usize(ts.len());
    for (m, c) in ts {
        write_canon_monomial(h, m);
        c.hash(h);
    }
}

// Node-variant tags fed into the hasher; distinct per constructor.
const TAG_TRUE: u8 = 0x01;
const TAG_FALSE: u8 = 0x02;
const TAG_ATOM: u8 = 0x03;
const TAG_REL: u8 = 0x04;
const TAG_NOT: u8 = 0x05;
const TAG_AND: u8 = 0x06;
const TAG_OR: u8 = 0x07;
const TAG_EXISTS: u8 = 0x08;
const TAG_FORALL: u8 = 0x09;
const TAG_EADOM: u8 = 0x0A;
const TAG_AADOM: u8 = 0x0B;

/// Leaf defaults: depth 1, no atoms, quantifier-free, dense-order class.
fn leaf_meta() -> NodeMeta {
    NodeMeta {
        hash: 0,
        free_vars: Vec::new(),
        depth: 1,
        sign_atoms: 0,
        rel_atoms: 0,
        quantifiers: 0,
        adom_quantifiers: 0,
        max_degree: 0,
        class: ConstraintClass::DenseOrder,
        quantifier_free: true,
        relations: Vec::new(),
    }
}

/// The metadata of a single-child node one level above `cm`, with the
/// given free variables: every other field flows through from the child,
/// and the caller overrides what the node changes. Nothing is cloned that
/// the caller then overwrites.
fn up(cm: &NodeMeta, free_vars: Vec<Var>) -> NodeMeta {
    NodeMeta {
        hash: 0,
        free_vars,
        depth: cm.depth + 1,
        sign_atoms: cm.sign_atoms,
        rel_atoms: cm.rel_atoms,
        quantifiers: cm.quantifiers,
        adom_quantifiers: cm.adom_quantifiers,
        max_degree: cm.max_degree,
        class: cm.class,
        quantifier_free: cm.quantifier_free,
        relations: cm.relations.clone(),
    }
}

/// The sorted, deduplicated union of sorted lists, built in one buffer of
/// their summed length (no allocation when they are all empty).
fn union<'a, T: Copy + Ord + 'a>(lists: impl Iterator<Item = &'a [T]> + Clone) -> Vec<T> {
    let mut out = Vec::with_capacity(lists.clone().map(<[T]>::len).sum());
    for list in lists {
        out.extend_from_slice(list);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// FNV-1a with a 128-bit state — deterministic across runs, platforms, and
/// sessions (no per-process seeding, unlike `DefaultHasher`), with an
/// avalanche finalizer so structurally close inputs don't produce close
/// digests. Implements [`Hasher`] so `Hash` types (notably [`Rat`]) can feed
/// it directly; `finish()` folds to 64 bits, [`Fnv128::finish128`] keeps all
/// 128.
#[derive(Clone, Debug)]
pub struct Fnv128(u128);

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;
// Odd constants for the xor-shift-multiply finalizer (splitmix-style).
const MIX_A: u128 = 0x2d358dccaa6c78a5e6a4c3f29d5f1a87;
const MIX_B: u128 = 0x9e3779b97f4a7c15f39cc0605cedc835;

impl Fnv128 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv128 {
        Fnv128(FNV128_OFFSET)
    }

    /// The full 128-bit digest.
    pub fn finish128(&self) -> u128 {
        let mut x = self.0;
        x ^= x >> 67;
        x = x.wrapping_mul(MIX_A);
        x ^= x >> 59;
        x = x.wrapping_mul(MIX_B);
        x ^= x >> 65;
        x
    }
}

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128::new()
    }
}

impl Hasher for Fnv128 {
    fn finish(&self) -> u64 {
        let x = self.finish128();
        (x ^ (x >> 64)) as u64
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    // Fixed-width little-endian encodings, so digests don't depend on the
    // platform's native endianness or pointer width.
    fn write_u8(&mut self, x: u8) {
        self.write(&[x]);
    }
    fn write_u16(&mut self, x: u16) {
        self.write(&x.to_le_bytes());
    }
    fn write_u32(&mut self, x: u32) {
        self.write(&x.to_le_bytes());
    }
    fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }
    fn write_u128(&mut self, x: u128) {
        self.write(&x.to_le_bytes());
    }
    fn write_usize(&mut self, x: usize) {
        self.write(&(x as u64).to_le_bytes());
    }
    fn write_i8(&mut self, x: i8) {
        self.write_u8(x as u8);
    }
    fn write_i16(&mut self, x: i16) {
        self.write_u16(x as u16);
    }
    fn write_i32(&mut self, x: i32) {
        self.write_u32(x as u32);
    }
    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }
    fn write_i128(&mut self, x: i128) {
        self.write_u128(x as u128);
    }
    fn write_isize(&mut self, x: isize) {
        self.write_u64(x as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_formula, parse_formula_with, VarMap};

    fn intern_src(arena: &mut Arena, src: &str) -> FormulaId {
        let (f, _) = parse_formula(src).unwrap();
        arena.intern(&f)
    }

    #[test]
    fn roundtrip_is_lossless() {
        for src in [
            "x < 1",
            "exists y. x < y & y < 1",
            "forall y. (y*y >= 0 | x = y)",
            "Eadom u. R(u, 2*x) & !(u = 0)",
            "x < 1 & x < 1 & (x < 1 | x > 0)",
        ] {
            let (f, _) = parse_formula(src).unwrap();
            let mut arena = Arena::new();
            let id = arena.intern(&f);
            let g = arena.extern_formula(id);
            assert_eq!(g, f, "{src}");
            // Idempotence: re-interning the externed tree is a no-op.
            assert_eq!(arena.intern(&g), id, "{src}");
        }
    }

    #[test]
    fn structurally_equal_subtrees_share_ids() {
        let mut arena = Arena::new();
        let a = intern_src(&mut arena, "x < 1 & y > 0");
        let b = intern_src(&mut arena, "x < 1 & y > 0");
        assert_eq!(a, b);
        let c = intern_src(&mut arena, "x < 1 & y > 1");
        assert_ne!(a, c);
        // `x < 1` occurs in both conjunctions but is stored once.
        let stats = arena.stats();
        assert!(stats.intern_calls > stats.nodes);
        assert!(stats.dedup_ratio() > 1.0);
    }

    #[test]
    fn hash_matches_structural_equality() {
        let mut arena = Arena::new();
        let a = intern_src(&mut arena, "exists y. x < y");
        let b = intern_src(&mut arena, "exists y. x < y");
        let c = intern_src(&mut arena, "exists y. x <= y");
        assert_eq!(arena.structural_hash(a), arena.structural_hash(b));
        assert_ne!(arena.structural_hash(a), arena.structural_hash(c));
    }

    #[test]
    fn metadata_matches_tree_walkers() {
        let srcs = [
            "exists y. x*x + y > 0 & Eadom u. R(u, 2*x)",
            "x + 2*y <= 3 | x = y",
            "forall a, b. a < b | b < a | a = b",
            "!(x < 1) & (x < 2 | exists z. z = x)",
        ];
        for src in srcs {
            let (f, _) = parse_formula(src).unwrap();
            let mut arena = Arena::new();
            let id = arena.intern(&f);
            let m = arena.meta(id);
            assert_eq!(m.atom_count(), f.atom_count() as u64, "{src}");
            assert_eq!(m.quantifiers, f.quantifier_count() as u64, "{src}");
            assert_eq!(m.class, f.class(), "{src}");
            assert_eq!(m.quantifier_free, f.is_quantifier_free(), "{src}");
            let fv: Vec<_> = f.free_vars().into_iter().collect();
            assert_eq!(m.free_vars, fv, "{src}");
            let rels: Vec<String> = m
                .relations
                .iter()
                .map(|&n| arena.rel_name(n).to_string())
                .collect();
            let expect: Vec<String> = f.relation_names().into_iter().collect();
            assert_eq!(rels, expect, "{src}");
        }
    }

    #[test]
    fn canonical_hash_invariances() {
        let mut arena = Arena::new();
        let mut vars = VarMap::new();
        let mut hash = |src: &str| {
            let id = arena.intern(&parse_formula_with(src, &mut vars).unwrap());
            arena.canonical_hash_for_params(id, &[])
        };
        let same = [
            // Commutativity.
            ("x < 1 & y < 2", "y < 2 & x < 1"),
            // Positive scaling.
            ("2*x < 2", "x < 1"),
            ("-x > -1", "x < 1"),
            // α-renaming of bound variables, one binder or several.
            ("exists y. x < y", "exists z. x < z"),
            ("exists y. exists z. y < z", "exists u. exists v. u < v"),
            ("exists y, z. y < z + x", "exists u, v. u < v + x"),
            // Shadowing: the innermost binder wins on both sides.
            ("exists y. exists y. y > 0", "exists a. exists b. b > 0"),
        ];
        for (a, b) in same {
            assert_eq!(hash(a), hash(b), "{a} vs {b}");
        }
        let apart = [
            ("x < 1 & y < 2", "x < 1 | y < 2"),
            ("x < 1", "x < 2"),
            // Bound and free occurrences must not collide.
            ("exists x. x < 1", "x < 1"),
            // Free variables are the query's identity.
            ("x < 0 & x < 1", "x < 0 & y < 1"),
            // The constants key apart from each other and from atoms.
            ("true", "false"),
            ("true", "x < 1"),
            ("false", "x < 1"),
        ];
        for (a, b) in apart {
            assert_ne!(hash(a), hash(b), "{a} vs {b}");
        }
    }

    #[test]
    fn canonical_hash_is_session_independent_under_params() {
        // Two sessions intern x/y in opposite orders; name-sorted params
        // make the digests agree.
        let mut a = VarMap::new();
        let fa = parse_formula_with("y <= x*x", &mut a).unwrap();
        let mut b = VarMap::new();
        b.intern("x");
        let fb = parse_formula_with("y <= x*x", &mut b).unwrap();
        let mut arena_a = Arena::new();
        let mut arena_b = Arena::new();
        let ia = arena_a.intern(&fa);
        let ib = arena_b.intern(&fb);
        let pa = [a.get("x").unwrap(), a.get("y").unwrap()];
        let pb = [b.get("x").unwrap(), b.get("y").unwrap()];
        assert_ne!(
            arena_a.canonical_hash_for_params(ia, &[]),
            arena_b.canonical_hash_for_params(ib, &[])
        );
        assert_eq!(
            arena_a.canonical_hash_for_params(ia, &pa),
            arena_b.canonical_hash_for_params(ib, &pb)
        );
        // An asymmetric pair must still be distinguished.
        let fc = parse_formula_with("x <= y*y", &mut a).unwrap();
        let ic = arena_a.intern(&fc);
        assert_ne!(
            arena_a.canonical_hash_for_params(ia, &pa),
            arena_a.canonical_hash_for_params(ic, &pa)
        );
    }

    /// Golden digests. The query cache and the warm-cache file are keyed by
    /// these bytes, so a change in how `Rat`/`Int` feed a `Hasher` makes
    /// every warm entry written by an older build silently miss. The
    /// constants straddle the single-limb, two-limb, `i64::MIN` and
    /// three-limb encodings of a coefficient.
    #[test]
    fn hash_stream_is_pinned() {
        for (src, golden) in [
            ("x <= 1/2", "047ed82d2a8e414129177a6b14811ecb"),
            ("x <= 4294967296", "d5b31b10b2f6ea54aa74591ac809096b"),
            (
                "x >= -9223372036854775808",
                "2119142a839279335aa7e9879e262b3a",
            ),
            (
                "x <= 18446744073709551616",
                "a103a49017fa8893b1da9d8e860a8e80",
            ),
        ] {
            let mut vars = VarMap::new();
            let f = parse_formula_with(src, &mut vars).unwrap();
            let mut arena = Arena::new();
            let id = arena.intern(&f);
            let x = vars.get("x").unwrap();
            let digest = arena.canonical_hash_for_params(id, &[x]);
            assert_eq!(format!("{digest:032x}"), golden, "{src}");
        }
        let mut h = Fnv128::new();
        cqa_arith::rat(-7, 3).hash(&mut h);
        assert_eq!(
            format!("{:032x}", h.finish128()),
            "c29f4afc8cd7569152a01bad0f67032a"
        );
        // Polynomial atoms: the term hash streams every `(monomial,
        // coefficient)` pair in ascending monomial order, so a change to how
        // `MPoly` stores its terms must leave these bytes alone.
        for (src, golden) in [
            ("x*x + y*y <= 1", "57de12d79aaa2535fac2940718449470"),
            (
                "3*x*y*z - 2/7*y*y*y + x > 5",
                "1bd6daae84ddfcb412730599f956df92",
            ),
            (
                "z*z*x - x*y + 4294967296*y - 1/3 = 0",
                "7b8648e24ce22a24dcd16e2f40d6e76d",
            ),
        ] {
            let f = parse_formula_with(src, &mut VarMap::new()).unwrap();
            let mut arena = Arena::new();
            let id = arena.intern(&f);
            let digest = arena.structural_hash(id);
            assert_eq!(format!("{digest:032x}"), golden, "{src}");
        }
    }

    #[test]
    fn fnv128_is_deterministic_and_spreads() {
        let mut h1 = Fnv128::new();
        h1.write(b"hello");
        let mut h2 = Fnv128::new();
        h2.write(b"hello");
        assert_eq!(h1.finish128(), h2.finish128());
        let mut h3 = Fnv128::new();
        h3.write(b"hellp");
        let d = h1.finish128() ^ h3.finish128();
        assert!(d.count_ones() > 32, "poor avalanche: {:#x}", d);
    }
}
