//! Minimal JSON emission for the `--json` modes of the figure binaries.
//!
//! The workspace has no serialization dependency, so the harnesses build their
//! `BENCH_<name>.json` perf-tracking files and the timeline documents through
//! this small hand-rolled builder — the only JSON writer in `bam-bench`.
//! Output is deterministic: fields appear in insertion order.

use std::path::PathBuf;

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number (`null` for non-finite values). Uses
/// `Debug` formatting so integral values keep a trailing `.0`: the drift
/// gate (`crate::drift`) compares integer literals exactly and float
/// literals with tolerance, so a float field must never render in the
/// integer shape or an in-band drift on it would hard-fail the gate.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// An ordered JSON object under construction.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a floating-point field (`null` if non-finite).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), num(value)));
        self
    }

    /// Adds a pre-rendered JSON value (nested object or array).
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Renders the object.
    pub fn build(self) -> String {
        let body: Vec<String> = self
            .fields
            .into_iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(&k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Renders a JSON array from pre-rendered values.
pub fn json_array(items: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = items.into_iter().collect();
    format!("[{}]", body.join(", "))
}

/// Writes `body` to `BENCH_<name>.json` at the workspace root (anchored via
/// this crate's manifest dir, so the invocation directory does not matter)
/// and returns the path. The figure binaries call this under `--json` so
/// future PRs can track perf drift from the committed history of these files.
///
/// # Errors
///
/// Propagates filesystem errors.
fn write_bench_json(name: &str, body: &str) -> std::io::Result<PathBuf> {
    // crates/bench/ -> crates/ -> workspace root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root");
    let path = root.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{body}\n"))?;
    Ok(path)
}

/// The shared `--json` epilogue of every figure binary: writes
/// `BENCH_<name>.json` at the workspace root and logs the path to stderr.
/// Hoisted here so no binary re-implements the write-and-report sequence
/// (or drifts from the workspace-rooted path convention).
///
/// # Panics
///
/// Panics if the file cannot be written — a bench run that silently loses
/// its trajectory point would defeat the drift gate.
pub fn emit_bench_json(name: &str, body: &str) {
    let path =
        write_bench_json(name, body).unwrap_or_else(|e| panic!("write BENCH_{name}.json: {e}"));
    eprintln!("wrote {}", path.display());
}

/// `true` when the process arguments request JSON output.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_renders_in_insertion_order() {
        let s = JsonObject::new()
            .str("name", "fig4")
            .int("requests", 1024)
            .num("miops", 5.1)
            .build();
        assert_eq!(
            s,
            "{\"name\": \"fig4\", \"requests\": 1024, \"miops\": 5.1}"
        );
    }

    #[test]
    fn integral_floats_keep_the_float_shape() {
        // The drift gate treats integer literals as exact fields; a float
        // field landing on an integral value must still render as a float.
        let s = JsonObject::new().num("interference", 1.0).build();
        assert_eq!(s, "{\"interference\": 1.0}");
    }

    #[test]
    fn escaping_and_nonfinite_are_safe() {
        let s = JsonObject::new()
            .str("q", "a\"b\\c\nd")
            .num("bad", f64::INFINITY)
            .build();
        assert_eq!(s, "{\"q\": \"a\\\"b\\\\c\\nd\", \"bad\": null}");
    }

    #[test]
    fn arrays_nest() {
        let arr = json_array([
            JsonObject::new().int("x", 1).build(),
            JsonObject::new().int("x", 2).build(),
        ]);
        let s = JsonObject::new().raw("rows", arr).build();
        assert_eq!(s, "{\"rows\": [{\"x\": 1}, {\"x\": 2}]}");
    }

    #[test]
    fn write_creates_the_bench_file() {
        let path = write_bench_json("jsonout_unit_test", "{}").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(content, "{}\n");
        assert!(path
            .to_string_lossy()
            .contains("BENCH_jsonout_unit_test.json"));
    }
}
