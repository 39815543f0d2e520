//! # gis-bench — the experiment harness
//!
//! One report binary per reconstructed table/figure (see DESIGN.md's
//! evaluation index) plus Criterion micro-benchmarks. Every binary
//! prints a self-contained aligned table; EXPERIMENTS.md records the
//! outputs and compares their *shape* against the paper-implied
//! claims.
//!
//! | binary | experiment |
//! |--------|-----------|
//! | `t1_pushdown` | T1 — predicate/projection pushdown traffic |
//! | `f1_join_strategies` | F1 — strategy crossover vs selectivity |
//! | `t2_join_order` | T2 — DP join ordering vs syntactic order |
//! | `f2_scaleout` | F2 — source scale-out |
//! | `t3_mapping_overhead` | T3 — heterogeneity mediation cost |
//! | `f3_latency` | F3 — WAN latency sensitivity |
//! | `t4_capabilities` | T4 — source capability asymmetry |
//! | `f4_semijoin` | F4 — semijoin byte reduction |
//! | `t5_cost_model` | T5 — estimate vs measured |
//! | `f8_mediator_throughput` | F8 — vectorized kernel rows/sec |
//! | `f9_materialized_views` | F9 — views vs re-shipping a repeated workload |
//! | `f11_wire_compression` | F11 — adaptive wire codecs vs raw frames |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod synth;

use std::fmt::Display;

/// A simple aligned text table for experiment reports.
#[derive(Debug, Default)]
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// A report titled `title` with the given column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: vec![],
            notes: vec![],
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Appends a footnote printed under the table.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        let hdr: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        out.push_str(&hdr.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(hdr.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("\n* {n}"));
        }
        out.push('\n');
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Writes an experiment's `BENCH_*.json` trajectory file: the
    /// experiment name and run mode, then `fields`, then one array
    /// `list_key` of flat objects. Values arrive already rendered as
    /// JSON (numbers formatted by the caller, strings via
    /// [`json_str`]).
    pub fn write_json(
        path: &str,
        experiment: &str,
        smoke: bool,
        fields: &[JsonField<'_>],
        list_key: &str,
        items: &[Vec<JsonField<'_>>],
    ) {
        let mode = if smoke { "smoke" } else { "full" };
        let mut out = String::from("{\n");
        let head = [
            ("experiment", json_str(experiment)),
            ("mode", json_str(mode)),
        ];
        for (key, value) in head.iter().chain(fields) {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        }
        let body: Vec<String> = items
            .iter()
            .map(|item| format!("    {{{}}}", json_members(item)))
            .collect();
        out.push_str(&format!(
            "  \"{list_key}\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        ));
        std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}

/// One JSON object member: its key and its already-rendered value.
pub type JsonField<'a> = (&'a str, String);

/// `"key": value` members joined with `, ` (no surrounding braces).
pub fn json_members(fields: &[JsonField<'_>]) -> String {
    let members: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    members.join(", ")
}

/// Renders `s` as a JSON string (the harness only emits identifiers
/// and fixed labels, so there is nothing to escape).
pub fn json_str(s: &str) -> String {
    format!("\"{s}\"")
}

/// The flat objects of the array member `key` of a JSON document, each
/// as its text between the braces — the reading counterpart of
/// [`json_members`], enough for the arrays of scalar-valued records
/// the report files hold (no nested objects; brackets and braces
/// inside strings are skipped).
pub fn json_array_objects<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let Some(at) = text.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let mut objects = Vec::new();
    let (mut in_string, mut escaped, mut open) = (false, false, None);
    let mut started = false;
    for (i, c) in text[at + key.len() + 2..].char_indices() {
        let i = at + key.len() + 2 + i;
        if in_string {
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' => started = true,
            '{' if started => open = Some(i + 1),
            '}' => objects.extend(open.take().map(|from| &text[from..i])),
            ']' if started => break,
            _ => {}
        }
    }
    objects
}

/// The value of scalar member `key` of a flat JSON object (as
/// [`json_array_objects`] yields them): a string without its quotes, a
/// number or literal as written.
pub fn json_field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let at = object.find(&format!("\"{key}\""))?;
    let rest = object[at + key.len() + 2..]
        .trim_start()
        .strip_prefix(':')?;
    let rest = rest.trim_start();
    match rest.strip_prefix('"') {
        Some(string) => string.split('"').next(),
        None => rest.split(',').next().map(str::trim),
    }
}

/// Formats a byte count with a thousands separator.
pub fn fmt_bytes(b: u64) -> String {
    let s = b.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// Formats a ratio like `12.3x`.
pub fn fmt_ratio(num: f64, den: f64) -> String {
    if den <= 0.0 {
        return "∞".into();
    }
    format!("{:.1}x", num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_record_arrays_read_back() {
        let doc = format!(
            "{{\n  \"seed\": 1,\n  \"guards\": [\n    {{ {} }},\n    {{\n      {}\n    }}\n  ],\n  \"x\": []\n}}",
            json_members(&[
                ("name", json_str("mix.max_class_time_share")),
                ("value", "0.31".into()),
                ("rule", json_str("in [0, 0.35]")),
                ("ok", "true".into()),
            ]),
            json_members(&[("name", json_str("samples")), ("value", "180".into())]),
        );
        let guards = json_array_objects(&doc, "guards");
        assert_eq!(guards.len(), 2);
        assert_eq!(
            json_field(guards[0], "name"),
            Some("mix.max_class_time_share")
        );
        assert_eq!(json_field(guards[0], "value"), Some("0.31"));
        assert_eq!(json_field(guards[0], "rule"), Some("in [0, 0.35]"));
        assert_eq!(json_field(guards[0], "ok"), Some("true"));
        assert_eq!(json_field(guards[1], "value"), Some("180"));
        assert_eq!(json_field(guards[1], "rule"), None);
        assert!(json_array_objects(&doc, "x").is_empty());
        assert!(json_array_objects(&doc, "absent").is_empty());
    }

    #[test]
    fn report_renders_aligned() {
        let mut r = Report::new("demo", &["a", "long_header"]);
        r.row(&[&1, &"x"]);
        r.row(&[&22222, &"yyyy"]);
        r.note("a note");
        let s = r.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("long_header"));
        assert!(s.contains("* a note"));
        let lines: Vec<&str> = s.lines().collect();
        // header and rows share width
        let hline = lines.iter().find(|l| l.contains("long_header")).unwrap();
        let rline = lines.iter().find(|l| l.contains("22222")).unwrap();
        assert_eq!(hline.len(), rline.len());
    }

    #[test]
    fn write_json_layout() {
        let path = std::env::temp_dir().join(format!("gis_bench_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        Report::write_json(
            path,
            "demo",
            true,
            &[("total", "7".to_string())],
            "rows",
            &[
                vec![("name", json_str("a")), ("n", "1".to_string())],
                vec![("name", json_str("b")), ("n", "2".to_string())],
            ],
        );
        let written = std::fs::read_to_string(path).expect("read back");
        std::fs::remove_file(path).expect("remove temp file");
        assert_eq!(
            written,
            "{\n  \"experiment\": \"demo\",\n  \"mode\": \"smoke\",\n  \"total\": 7,\n  \
             \"rows\": [\n    {\"name\": \"a\", \"n\": 1},\n    {\"name\": \"b\", \"n\": 2}\n  ]\n}\n"
        );
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(123), "123");
        assert_eq!(fmt_bytes(1234567), "1_234_567");
        assert_eq!(fmt_ratio(10.0, 2.0), "5.0x");
        assert_eq!(fmt_ratio(1.0, 0.0), "∞");
    }
}
