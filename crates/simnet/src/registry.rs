//! Generic name → value registries for the sweep-matrix presets.
//!
//! The sweep harness resolves repair strategies, fault profiles, testbed
//! presets, and workload generators by name. Before this module each of
//! those kept its own hand-maintained name array plus a copy-pasted
//! `by_name` match; a [`Registry`] holds the `(name, constructor)` pairs
//! once, in sweep-matrix order, and derives the name list from them. All
//! lookups share one error type, [`RegistryError`], whose message lists the
//! valid names — so every CLI and config path reports unknown presets the
//! same way.

use std::fmt;
use std::sync::OnceLock;

/// A static, ordered name → value table.
///
/// `T` is typically a constructor function (`fn() -> Config` or
/// `fn(f64) -> Schedule`); entries are declared in sweep-matrix order and
/// that order is preserved by [`names`](Registry::names) and
/// [`iter`](Registry::iter), so anything derived from a registry stays
/// byte-stable.
pub struct Registry<T: 'static> {
    kind: &'static str,
    entries: &'static [(&'static str, T)],
    names: OnceLock<Vec<&'static str>>,
}

impl<T: 'static> Registry<T> {
    /// Creates a registry over a static entry table. `kind` is the noun used
    /// in error messages (e.g. `"strategy"`, `"fault profile"`).
    pub const fn new(kind: &'static str, entries: &'static [(&'static str, T)]) -> Self {
        Registry {
            kind,
            entries,
            names: OnceLock::new(),
        }
    }

    /// The noun this registry uses in error messages.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The entry names, in declaration (sweep-matrix) order — derived from
    /// the entry table, never maintained by hand.
    pub fn names(&self) -> &[&'static str] {
        self.names
            .get_or_init(|| self.entries.iter().map(|(name, _)| *name).collect())
    }

    /// Looks an entry up by name.
    pub fn find(&self, name: &str) -> Option<&T> {
        self.entries
            .iter()
            .find(|(entry, _)| *entry == name)
            .map(|(_, value)| value)
    }

    /// Looks an entry up by name, or reports the valid names.
    pub fn get(&self, name: &str) -> Result<&T, RegistryError> {
        self.find(name).ok_or_else(|| RegistryError {
            kind: self.kind,
            name: name.to_string(),
            valid: self.names().to_vec(),
        })
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.find(name).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &T)> {
        self.entries.iter().map(|(name, value)| (*name, value))
    }
}

impl<T: 'static> fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("kind", &self.kind)
            .field("names", &self.names())
            .finish()
    }
}

/// An unknown name was looked up in a [`Registry`]; the message lists every
/// valid name so callers (CLI flag parsing, config loading) never have to
/// assemble that list themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryError {
    kind: &'static str,
    name: String,
    valid: Vec<&'static str>,
}

impl RegistryError {
    /// The registry's noun (e.g. `"strategy"`).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The name that failed to resolve.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} '{}' (valid: {})",
            self.kind,
            self.name,
            self.valid.join(", ")
        )
    }
}

impl std::error::Error for RegistryError {}

#[cfg(test)]
mod tests {
    use super::*;

    static NUMBERS: Registry<u32> = Registry::new("number", &[("one", 1), ("two", 2), ("ten", 10)]);

    #[test]
    fn names_are_derived_in_declaration_order() {
        assert_eq!(NUMBERS.names(), &["one", "two", "ten"]);
        assert_eq!(NUMBERS.len(), 3);
        assert!(!NUMBERS.is_empty());
    }

    #[test]
    fn lookup_hits_and_misses() {
        assert_eq!(NUMBERS.find("two"), Some(&2));
        assert_eq!(NUMBERS.get("ten").copied(), Ok(10));
        assert!(NUMBERS.contains("one"));
        assert!(!NUMBERS.contains("zero"));
        let err = NUMBERS.get("zero").unwrap_err();
        assert_eq!(err.kind(), "number");
        assert_eq!(err.name(), "zero");
        assert_eq!(err.valid, ["one", "two", "ten"]);
        assert_eq!(
            err.to_string(),
            "unknown number 'zero' (valid: one, two, ten)"
        );
    }

    #[test]
    fn iter_yields_pairs_in_order() {
        let pairs: Vec<(&str, u32)> = NUMBERS.iter().map(|(n, v)| (n, *v)).collect();
        assert_eq!(pairs, vec![("one", 1), ("two", 2), ("ten", 10)]);
    }
}
