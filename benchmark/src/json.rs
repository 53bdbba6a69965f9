//! Small helpers over the vendored serde `Content` tree, the only JSON
//! model the workspace has.

use serde::Content;

/// An object from `(key, value)` pairs, in the order given.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Content)>) -> Content {
    Content::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string value.
pub fn string(s: impl Into<String>) -> Content {
    Content::Str(s.into())
}

/// Reads and parses a JSON file.
///
/// # Errors
///
/// Names the file on an I/O or syntax error.
pub fn read_file(path: &std::path::Path) -> Result<Content, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a value as pretty-printed JSON.
///
/// # Errors
///
/// Names the file on an I/O error.
pub fn write_file(path: &std::path::Path, value: &Content) -> Result<(), String> {
    let mut text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
