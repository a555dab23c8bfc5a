//! Interning of human-readable variable names.

use cqa_poly::Var;
use std::collections::HashMap;

/// A bidirectional mapping between variable names and [`Var`] indices.
///
/// The parser interns identifiers here; printers look names back up. Fresh
/// variables created during normalization get synthetic `_k` names on
/// demand.
#[derive(Clone, Debug, Default)]
pub struct VarMap {
    names: Vec<String>,
    index: HashMap<String, Var>,
}

impl VarMap {
    /// An empty map.
    pub fn new() -> VarMap {
        VarMap::default()
    }

    /// Interns `name`, returning its variable (existing or newly assigned).
    pub fn intern(&mut self, name: &str) -> Var {
        if let Some(&v) = self.index.get(name) {
            return v;
        }
        let v = Var(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), v);
        v
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<Var> {
        self.index.get(name).copied()
    }

    /// The name of `v`, or a synthetic `x{n}` fallback for variables created
    /// outside this map.
    pub fn name(&self, v: Var) -> String {
        self.names
            .get(v.0 as usize)
            .cloned()
            .unwrap_or_else(|| format!("x{}", v.0))
    }

    /// Creates a fresh variable with a derived name.
    pub fn fresh(&mut self, hint: &str) -> Var {
        let mut k = self.names.len();
        loop {
            let candidate = format!("{hint}{k}");
            if !self.index.contains_key(&candidate) {
                return self.intern(&candidate);
            }
            k += 1;
        }
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` iff no variables are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Forgets every variable interned after the first `len`, so the next
    /// new name is assigned `Var(len)` again (no-op when `len >= self.len()`).
    pub fn truncate(&mut self, len: usize) {
        for name in self.names.drain(len.min(self.names.len())..) {
            self.index.remove(&name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut m = VarMap::new();
        let x = m.intern("x");
        let y = m.intern("y");
        assert_ne!(x, y);
        assert_eq!(m.intern("x"), x);
        assert_eq!(m.name(x), "x");
        assert_eq!(m.get("y"), Some(y));
        assert_eq!(m.get("z"), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn fresh_avoids_collisions() {
        let mut m = VarMap::new();
        m.intern("t2");
        let f = m.fresh("t");
        assert_ne!(m.name(f), "t2");
        assert!(m.get(&m.name(f)).is_some());
    }

    #[test]
    fn truncate_forgets_the_tail() {
        let mut m = VarMap::new();
        let x = m.intern("x");
        m.intern("y");
        m.intern("z");
        m.truncate(1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get("x"), Some(x));
        assert_eq!(m.get("y"), None);
        assert_eq!(m.intern("z"), Var(1));
        m.truncate(5);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn fallback_name() {
        let m = VarMap::new();
        assert_eq!(m.name(Var(7)), "x7");
    }
}
