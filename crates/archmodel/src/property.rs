//! Property lists attached to architectural elements.

use crate::key::Key;
use crate::value::Value;

/// A named collection of property values.
///
/// Keys are interned [`Key`]s and entries are kept sorted by name, so
/// iteration (and therefore constraint evaluation and model diffing) is
/// deterministic and identical to the previous `BTreeMap<String, _>`
/// representation — while `set` with a pre-interned key does no string
/// hashing or cloning, and `get` by `&str` is a binary search that never
/// touches the interner. Property lists are small (a handful of entries), so
/// the sorted-vector layout also beats a tree on every operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PropertyMap {
    entries: Vec<(Key, Value)>,
}

impl PropertyMap {
    /// Creates an empty property map.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.as_str().cmp(name))
    }

    /// Sets (or replaces) a property. An existing entry is found by its
    /// interned key's pointer, with no string compare; only a key not yet
    /// present pays for the search by name that keeps the entries sorted.
    pub fn set(&mut self, name: impl Into<Key>, value: impl Into<Value>) {
        let key = name.into();
        if let Some(entry) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            entry.1 = value.into();
            return;
        }
        match self.position(key.as_str()) {
            Ok(idx) => self.entries[idx].1 = value.into(),
            Err(idx) => self.entries.insert(idx, (key, value.into())),
        }
    }

    /// Builder-style property setting.
    pub fn with(mut self, name: impl Into<Key>, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Gets a property by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).ok().map(|idx| &self.entries[idx].1)
    }

    /// Gets a numeric property, coercing ints to floats.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Value::as_f64)
    }

    /// Gets an integer property.
    pub fn get_i64(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(Value::as_i64)
    }

    /// Gets a boolean property.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.get(name).and_then(Value::as_bool)
    }

    /// Removes a property, returning its previous value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.position(name)
            .ok()
            .map(|idx| self.entries.remove(idx).1)
    }

    /// Whether a property is present.
    pub fn contains(&self, name: &str) -> bool {
        self.position(name).is_ok()
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no properties are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over (name, value) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Names of properties present here but missing or different in `other`.
    pub fn diff(&self, other: &PropertyMap) -> Vec<String> {
        self.entries
            .iter()
            .filter(|(k, v)| other.get(k.as_str()) != Some(v))
            .map(|(k, _)| k.as_str().to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resetting_an_interned_key_replaces_the_value_in_place() {
        let load = Key::new("load");
        let mut props = PropertyMap::new()
            .with("averageLatency", 1.5)
            .with(load, 7i64)
            .with("up", true);
        let keys = |props: &PropertyMap| props.entries.iter().map(|(k, _)| *k).collect::<Vec<_>>();
        let before = keys(&props);
        props.set(load, 9i64);
        props.set("averageLatency", 2.5);
        assert_eq!(keys(&props), before);
        assert_eq!(props.get_i64("load"), Some(9));
        assert_eq!(props.get_f64("averageLatency"), Some(2.5));
        assert_eq!(
            props,
            PropertyMap::new()
                .with("up", true)
                .with("load", 9i64)
                .with("averageLatency", 2.5)
        );
    }

    #[test]
    fn set_get_roundtrip() {
        let mut props = PropertyMap::new();
        props.set("averageLatency", 1.5);
        props.set("load", 7i64);
        props.set("isActive", true);
        props.set("host", "S1");
        assert_eq!(props.get_f64("averageLatency"), Some(1.5));
        assert_eq!(props.get_i64("load"), Some(7));
        assert_eq!(props.get_bool("isActive"), Some(true));
        assert_eq!(props.get("host"), Some(&Value::Str("S1".into())));
        assert_eq!(props.len(), 4);
    }

    #[test]
    fn int_coerces_to_float() {
        let props = PropertyMap::new().with("load", 7i64);
        assert_eq!(props.get_f64("load"), Some(7.0));
    }

    #[test]
    fn missing_property_is_none() {
        let props = PropertyMap::new();
        assert!(props.get("nothing").is_none());
        assert!(!props.contains("nothing"));
        assert!(props.is_empty());
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut props = PropertyMap::new();
        props.set("bandwidth", 10.0e6);
        props.set("bandwidth", 5.0e6);
        assert_eq!(props.get_f64("bandwidth"), Some(5.0e6));
        assert_eq!(props.len(), 1);
    }

    #[test]
    fn remove_returns_previous() {
        let mut props = PropertyMap::new().with("x", 1i64);
        assert_eq!(props.remove("x"), Some(Value::Int(1)));
        assert_eq!(props.remove("x"), None);
    }

    #[test]
    fn diff_reports_changed_and_missing() {
        let a = PropertyMap::new().with("x", 1i64).with("y", 2i64);
        let b = PropertyMap::new().with("x", 1i64).with("y", 3i64);
        assert_eq!(a.diff(&b), vec!["y".to_string()]);
        let empty = PropertyMap::new();
        let mut d = a.diff(&empty);
        d.sort();
        assert_eq!(d, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let props = PropertyMap::new()
            .with("b", 1i64)
            .with("a", 2i64)
            .with("c", 3i64);
        let names: Vec<&str> = props.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn interned_keys_are_reusable_handles() {
        let latency = Key::new("averageLatency");
        let mut props = PropertyMap::new();
        props.set(latency, 1.0);
        props.set(latency, 2.0);
        assert_eq!(props.get_f64(latency.as_str()), Some(2.0));
        assert_eq!(props.len(), 1);
    }
}
