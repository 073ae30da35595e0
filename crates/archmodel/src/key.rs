//! Interned names for properties and elements.
//!
//! The model layer sits on the adaptation loop's hot path: every control
//! tick applies thousands of gauge readings, each addressed by a property
//! name and an element name. With plain `String`s that meant a clone plus a
//! full string hash/compare per reading per tick. A [`Key`] interns the name
//! once in a global table and is afterwards a `Copy` handle: equality is a
//! pointer comparison, hashing hashes the pointer, and no allocation happens
//! after the first intern of a given name.
//!
//! Ordering still compares the underlying strings (with a pointer fast
//! path), so collections keyed by `Key` iterate in exactly the same name
//! order as their `String`-keyed predecessors — constraint evaluation and
//! model diffing remain deterministic and bit-identical.
//!
//! The trace store's read side interns through the same table: the run
//! ids, subjects and details of the events and query rows it hands back are
//! `Key`s, so a row holds no reference count and a result drops as one free.
//! Those names are the model's own element and property names plus a run id
//! per stored run and the repair, fault and detector descriptions the
//! emitters write: the `store_query` benchmark's 2.57 M-event store holds
//! about 250 distinct ones (108 run ids, 59 subjects, 85 details).
//!
//! Interned strings are leaked intentionally. The table is bounded by the
//! number of *distinct* names a process meets, never by how often it meets
//! them: element and property names are few and stable (a few per element),
//! and a store adds its run ids and the few hundred descriptions its
//! emitters write. Freeing them would need a count per handle, which is the
//! cost interning exists to remove, so the table is an append-only arena.

use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

/// An interned, copyable name. Obtain one with [`Key::new`] or via
/// `From<&str>` / `From<String>`; two keys made from equal strings are
/// always the same pointer.
#[derive(Clone, Copy)]
pub struct Key(&'static str);

fn interner() -> &'static Mutex<HashSet<&'static str>> {
    static INTERNER: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(HashSet::new()))
}

impl Key {
    /// Interns `name` (a no-op after the first time) and returns its key.
    pub fn new(name: &str) -> Key {
        let mut table = interner().lock().expect("interner lock");
        if let Some(&existing) = table.get(name) {
            return Key(existing);
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        table.insert(leaked);
        Key(leaked)
    }

    /// The key of `name` if it was ever interned, interning nothing: a
    /// read-only lookup by name calls this, since a name never interned
    /// cannot name anything, and a miss must not grow the table.
    pub fn find(name: &str) -> Option<Key> {
        let table = interner().lock().expect("interner lock");
        table.get(name).map(|&existing| Key(existing))
    }

    /// The interned string.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl From<&str> for Key {
    fn from(name: &str) -> Key {
        Key::new(name)
    }
}

impl From<&String> for Key {
    fn from(name: &String) -> Key {
        Key::new(name)
    }
}

impl From<String> for Key {
    fn from(name: String) -> Key {
        Key::new(&name)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        // The interner guarantees one allocation per distinct string, so
        // pointer identity is string equality.
        std::ptr::eq(self.0.as_ptr(), other.0.as_ptr()) && self.0.len() == other.0.len()
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl PartialEq<str> for Key {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Key {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for Key {
    fn eq(&self, other: &String) -> bool {
        self.0 == other.as_str()
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Pointer identity is string identity, so hashing the address is
        // consistent with `Eq` and far cheaper than hashing the bytes.
        (self.0.as_ptr() as usize).hash(state);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let a = Key::new("averageLatency");
        let b = Key::from("averageLatency".to_string());
        assert_eq!(a, b);
        assert_eq!(a.as_str().as_ptr(), b.as_str().as_ptr());
        assert_ne!(a, Key::new("load"));
    }

    #[test]
    fn ordering_matches_string_order() {
        let mut keys = [Key::new("b"), Key::new("a"), Key::new("c"), Key::new("a")];
        keys.sort();
        let names: Vec<&str> = keys.iter().map(Key::as_str).collect();
        assert_eq!(names, vec!["a", "a", "b", "c"]);
    }

    #[test]
    fn hashing_is_usable_in_maps() {
        let mut map = std::collections::HashMap::new();
        map.insert(Key::new("x"), 1);
        map.insert(Key::new("y"), 2);
        assert_eq!(map.get(&Key::new("x")), Some(&1));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn display_shows_the_name() {
        assert_eq!(Key::new("bandwidth").to_string(), "bandwidth");
    }
}
