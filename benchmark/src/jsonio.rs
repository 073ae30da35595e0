//! Result files: read and written whole, as `serde_json::Value`.

use serde_json::Value;
use std::path::Path;

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).expect("a JSON value serialises");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}
