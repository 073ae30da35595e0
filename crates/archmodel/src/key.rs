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
//! A key is one word: a thin pointer to a leaked cell that holds the
//! interned string's fat pointer, so a query row of the trace store, which
//! holds three names, is 72 bytes, not 96. A distinct name costs 16 bytes
//! more for its cell, and 8 for the key its table entry keeps beside the
//! name, so that a lookup by `&str` compares strings without loading a
//! cell. Cells are handed out from leaked chunks of 64: interning a new
//! name makes one allocation for the string and a sixty-fourth of one for
//! its cell. Equality and hashing use the cell's address, which is as
//! unique to the name as the string's was.
//!
//! Every production map in the workspace hashes with `rustc_hash`'s Fx
//! hasher, the interner's own table included. A `Key` feeds it the cell's
//! address, one word, so hashing a key is one multiply. The cells are 16
//! bytes apart, so those words all end in the same four bits; the hasher's
//! `finish` rotates its product so that a map's bucket, taken from the
//! hash's low bits, is chosen by the product's well-mixed high bits instead
//! (`tests::consecutive_keys_spread_over_a_maps_buckets`).
//!
//! Interned strings are leaked intentionally. The table is bounded by the
//! number of *distinct* names a process meets, never by how often it meets
//! them: element and property names are few and stable (a few per element),
//! and a store adds its run ids and the few hundred descriptions its
//! emitters write. Freeing them would need a count per handle, which is the
//! cost interning exists to remove, so the table is an append-only arena.

use rustc_hash::FxHashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

/// An interned, copyable name. Obtain one with [`Key::new`] or via
/// `From<&str>` / `From<String>`; two keys made from equal strings are
/// always the same pointer.
#[derive(Clone, Copy)]
pub struct Key(&'static &'static str);

/// Cells per leaked chunk.
const CHUNK: usize = 64;

#[derive(Default)]
struct Interner {
    /// Each name's key, under the name itself: a lookup compares the string
    /// without first loading the key's cell.
    table: FxHashMap<&'static str, Key>,
    /// The unused rest of the newest chunk.
    free: &'static mut [&'static str],
}

impl Interner {
    /// A new cell holding `name`, from the newest chunk.
    fn cell(&mut self, name: &'static str) -> &'static &'static str {
        if self.free.is_empty() {
            self.free = Vec::leak(vec![""; CHUNK]);
        }
        let (cell, rest) = std::mem::take(&mut self.free)
            .split_first_mut()
            .expect("a chunk is never empty");
        self.free = rest;
        *cell = name;
        cell
    }
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(Mutex::default)
}

impl Key {
    /// Interns `name` (a no-op after the first time) and returns its key.
    pub fn new(name: &str) -> Key {
        let mut interner = interner().lock().expect("interner lock");
        if let Some(&key) = interner.table.get(name) {
            return key;
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        let key = Key(interner.cell(leaked));
        interner.table.insert(leaked, key);
        key
    }

    /// The key of `name` if it was ever interned, interning nothing: a
    /// read-only lookup by name calls this, since a name never interned
    /// cannot name anything, and a miss must not grow the table.
    pub fn find(name: &str) -> Option<Key> {
        let interner = interner().lock().expect("interner lock");
        interner.table.get(name).copied()
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
        // The interner makes one cell per distinct string, so cell identity
        // is string equality.
        std::ptr::eq(self.0, other.0)
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
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialEq<str> for Key {
    fn eq(&self, other: &str) -> bool {
        *self.0 == other
    }
}

impl PartialEq<&str> for Key {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<String> for Key {
    fn eq(&self, other: &String) -> bool {
        *self.0 == other.as_str()
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Cell identity is string identity, so hashing the address is
        // consistent with `Eq` and far cheaper than hashing the bytes.
        std::ptr::from_ref(self.0).addr().hash(state);
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
        let mut map = FxHashMap::default();
        map.insert(Key::new("x"), 1);
        map.insert(Key::new("y"), 2);
        assert_eq!(map.get(&Key::new("x")), Some(&1));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn consecutive_keys_spread_over_a_maps_buckets() {
        // Keys interned one after another sit in neighbouring cells, 16
        // bytes apart. A map of `N` buckets keeps the hash's low bits: a
        // `finish` that returned the raw product would end every hash in
        // the same four bits and reach at most `N / 16` buckets.
        use std::hash::BuildHasher;
        const N: usize = 1024;
        let keys: Vec<Key> = (0..N)
            .map(|i| Key::new(&format!("key-test-spread-{i:04}")))
            .collect();
        let buckets: rustc_hash::FxHashSet<u64> = keys
            .iter()
            .map(|key| rustc_hash::FxBuildHasher.hash_one(key) & (N as u64 - 1))
            .collect();
        assert!(buckets.len() >= N / 2, "{} of {N} buckets", buckets.len());
    }

    #[test]
    fn a_key_and_an_absent_key_are_one_word() {
        assert_eq!(std::mem::size_of::<Key>(), std::mem::size_of::<usize>());
        assert_eq!(
            std::mem::size_of::<Option<Key>>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn threads_interning_the_same_names_get_the_same_keys() {
        // 200 names fill cells across more than one chunk, whatever else
        // the test binary has interned.
        let names: Vec<String> = (0..200)
            .map(|i| format!("key-test-thread-{i:03}"))
            .collect();
        let per_thread: Vec<Vec<Key>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let names = &names;
                    scope.spawn(move || {
                        // Each thread visits the names in its own order.
                        let mut order: Vec<usize> = (0..names.len()).collect();
                        match t {
                            1 => order.reverse(),
                            2 => order.sort_by_key(|&i| (i % 7, i)),
                            3 => order.rotate_left(names.len() / 2),
                            _ => {}
                        }
                        let mut keys = vec![None; names.len()];
                        for i in order {
                            keys[i] = Some(Key::new(&names[i]));
                        }
                        keys.into_iter().map(Option::unwrap).collect::<Vec<Key>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        // `Key`'s equality is cell identity.
        for keys in &per_thread[1..] {
            assert_eq!(keys, &per_thread[0]);
        }
        for (name, &key) in names.iter().zip(&per_thread[0]) {
            assert_eq!(key.as_str(), name);
            assert_eq!(Key::find(name), Some(key));
        }
    }

    #[test]
    fn keys_from_different_chunks_sort_in_string_order() {
        // Interned in reverse, so cell order is the opposite of name order.
        let mut keys: Vec<Key> = (0..150)
            .rev()
            .map(|i| Key::new(&format!("key-test-sort-{i:03}")))
            .collect();
        keys.sort();
        let names: Vec<&str> = keys.iter().map(Key::as_str).collect();
        let mut expected = names.clone();
        expected.sort_unstable();
        assert_eq!(names, expected);
        assert_eq!(names[0], "key-test-sort-000");
    }

    #[test]
    fn finding_a_name_never_interned_interns_nothing() {
        let name = "key-test-never-interned";
        assert_eq!(Key::find(name), None);
        assert_eq!(Key::find(name), None);
    }

    #[test]
    fn display_shows_the_name() {
        assert_eq!(Key::new("bandwidth").to_string(), "bandwidth");
    }
}
