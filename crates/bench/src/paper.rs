//! The ledgers: one [`Table`] type for every reproduced artifact and
//! every kernel measurement, the one formatter that prints it, the one
//! [`ledger`] writer, the one [`cells`] reader and the shape gate
//! `bench_check` runs on both committed ledgers. A full `paper` run
//! records [`SECTIONS`] in `BENCH_paper.json`; `bench_lut_eval` records
//! the [`kernels`](crate::kernels) sections in `BENCH_lut_eval.json`.
//!
//! A ledger holds numbers only as they are printed: each value is
//! written at its column's precision, so the file and the terminal agree
//! digit for digit, and two runs of the deterministic paper artifacts
//! write the same bytes. Nothing in the paper ledger is timed.

use crate::Json;

/// Every section a full `paper` run records, in run order, separated by
/// spaces. `bench_check` fails a ledger that lacks any of them.
pub const SECTIONS: &str = "fig2 fig2_samples table2a table2b table3 table4 table4_ratios \
    table4_stages table5 ablation_entries ablation_loss ablation_breakpoints ablation_sampling \
    ablation_calibration ext_decoder ext_decoder_sfu ext_softermax_operator ext_softermax";

/// A numeric column: its header and the decimals every value in it is
/// printed and recorded with.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Header text.
    pub name: String,
    /// Digits after the decimal point.
    pub decimals: usize,
}

/// One labelled row: a value per column, and the paper's values for the
/// same columns where the reproduction cites them.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label.
    pub label: String,
    /// One value per column.
    pub values: Vec<f64>,
    /// The paper's reported values, one per column.
    pub paper: Option<Vec<f64>>,
}

impl Row {
    /// A row without paper values.
    pub fn new<V: Into<f64>>(
        label: impl Into<String>,
        values: impl IntoIterator<Item = V>,
    ) -> Self {
        let (label, values) = (label.into(), values.into_iter().map(Into::into).collect());
        Row {
            label,
            values,
            paper: None,
        }
    }
}

/// One reproduced table: what the formatter prints and the ledger
/// records. Built by [`Table::new`], then the `cols` and `shape` methods.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Ledger key, one of its ledger's section names.
    pub section: &'static str,
    /// What the table reproduces.
    pub title: String,
    /// Header of the row-label column.
    pub label: &'static str,
    /// The numeric columns.
    pub columns: Vec<Column>,
    /// The rows, each with one value per column.
    pub rows: Vec<Row>,
    /// The shape to check against the paper (empty: none stated).
    pub shape: &'static str,
}

impl Table {
    /// A table of `rows`, with no columns and no shape yet.
    pub fn new(
        section: &'static str,
        title: impl Into<String>,
        label: &'static str,
        rows: impl IntoIterator<Item = Row>,
    ) -> Self {
        let (title, rows) = (title.into(), rows.into_iter().collect());
        Table {
            section,
            title,
            label,
            rows,
            ..Table::default()
        }
    }

    /// Appends columns that share one precision.
    pub fn cols<S: Into<String>>(
        mut self,
        decimals: usize,
        names: impl IntoIterator<Item = S>,
    ) -> Self {
        let columns = names.into_iter().map(|name| Column {
            name: name.into(),
            decimals,
        });
        self.columns.extend(columns);
        self
    }

    /// Sets the shape to check.
    pub fn shape(mut self, shape: &'static str) -> Self {
        self.shape = shape;
        self
    }

    /// The value cells of one row, each at its column's precision; a
    /// non-finite value reads `null`, as in the ledger.
    fn cells(&self, values: &[f64]) -> Vec<String> {
        let cell = |(c, v): (&Column, &f64)| match v.is_finite() {
            true => format!("{v:.*}", c.decimals),
            false => "null".into(),
        };
        self.columns.iter().zip(values).map(cell).collect()
    }

    /// The table as aligned text: title, header, rows (each paper row
    /// under its measured row), and the shape to check.
    pub fn render(&self) -> String {
        let head = self.columns.iter().map(|c| c.name.clone());
        let mut lines = vec![[vec![self.label.to_string()], head.collect()].concat()];
        for r in &self.rows {
            lines.push([vec![r.label.clone()], self.cells(&r.values)].concat());
            if let Some(p) = &r.paper {
                lines.push([vec!["  paper".to_string()], self.cells(p)].concat());
            }
        }
        let mut widths = vec![0; lines[0].len()];
        for l in &lines {
            for (w, cell) in widths.iter_mut().zip(l) {
                *w = cell.chars().count().max(*w);
            }
        }
        let mut out = format!("== {}: {} ==\n\n", self.section, self.title);
        for l in &lines {
            let mut text = format!("{:<w$}", l[0], w = widths[0]);
            for (cell, w) in l.iter().zip(&widths).skip(1) {
                text += &format!("{cell:>w$}", w = w + 2);
            }
            out += text.trim_end();
            out.push('\n');
        }
        if !self.shape.is_empty() {
            out += &format!("\nShape to check: {}\n", self.shape);
        }
        out
    }

    /// The table's ledger entry, `"section": {…}`. Strings are quoted by
    /// `Debug`, which is JSON for the printable text tables carry.
    fn json(&self) -> String {
        let numbers = |values: &[f64]| format!("[{}]", self.cells(values).join(", "));
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let paper = r
                    .paper
                    .as_ref()
                    .map_or(String::new(), |p| format!(", \"paper\": {}", numbers(p)));
                format!(
                    "        {{\"label\": {:?}, \"values\": {}{paper}}}",
                    r.label,
                    numbers(&r.values)
                )
            })
            .collect();
        let columns: Vec<String> = self
            .columns
            .iter()
            .map(|c| format!("{:?}", c.name))
            .collect();
        format!(
            "    {:?}: {{\n      \"title\": {:?},\n      \"label\": {:?},\n      \"columns\": [{}],\n      \"rows\": [\n{}\n      ],\n      \"shape\": {:?}\n    }}",
            self.section, self.title, self.label, columns.join(", "), rows.join(",\n"), self.shape
        )
    }
}

/// The ledger text for `tables`: the `bench` name, then the run-wide
/// `header` fields (strings and numbers), then one section per table,
/// each value at its column's precision, a non-finite value as `null`.
pub fn ledger(bench: &str, header: &[(&str, Json)], tables: &[Table]) -> String {
    let mut out = format!("{{\n  \"bench\": {bench:?},\n");
    for (key, value) in header {
        out += &format!("  {key:?}: {value},\n");
    }
    let sections: Vec<String> = tables.iter().map(Table::json).collect();
    out + &format!("  \"sections\": {{\n{}\n  }}\n}}\n", sections.join(",\n"))
}

/// The `column` cell of every row of a ledger's `section`, by row label:
/// the one reader the ledger gates use. A `null` cell or a missing
/// column reads `None`; a missing section has no rows.
pub fn cells<'a>(ledger: &'a Json, section: &str, column: &str) -> Vec<(&'a str, Option<f64>)> {
    let table = ledger.get("sections").and_then(|s| s.get(section));
    let list = |key: &str| -> &'a [Json] {
        let list = table.and_then(|t| t.get(key)).and_then(Json::as_array);
        list.unwrap_or(&[])
    };
    let col = list("columns")
        .iter()
        .position(|c| c.as_str() == Some(column));
    let value = |r: &'a Json| {
        let values = r.get("values").and_then(Json::as_array);
        values.zip(col).and_then(|(v, c)| v.get(c)?.as_f64())
    };
    let label = |r: &'a Json| r.get("label").and_then(Json::as_str).unwrap_or("?");
    list("rows").iter().map(|r| (label(r), value(r))).collect()
}

/// A running tally of ledger checks: each prints an `ok` or `FAIL` line.
#[derive(Debug, Default)]
pub struct Gate {
    /// The failed checks' messages.
    pub failures: Vec<String>,
    /// The passed checks' messages.
    pub passes: Vec<String>,
}

impl Gate {
    /// Records a failed check.
    pub fn fail(&mut self, message: String) {
        println!("  FAIL  {message}");
        self.failures.push(message);
    }

    /// Records a passed check.
    pub fn pass(&mut self, message: String) {
        println!("  ok    {message}");
        self.passes.push(message);
    }

    /// Checks run so far.
    pub fn checks(&self) -> usize {
        self.failures.len() + self.passes.len()
    }
}

/// A ledger's shape gate, one check per section: each of `sections`
/// (names separated by spaces, as [`SECTIONS`]) is present, has columns
/// and rows, and records one finite number per column in every row's
/// `values` (and `paper`, where given). On the paper ledger it gates no
/// claim of the paper: tests pin the claims that hold.
pub fn check_ledger(gate: &mut Gate, ledger: &Json, sections: &str) {
    let bench = ledger.get("bench").and_then(Json::as_str).unwrap_or("?");
    println!("{bench} ledger:");
    for section in sections.split_whitespace() {
        let table = ledger.get("sections").and_then(|s| s.get(section));
        let list = |key: &str| {
            table
                .and_then(|t| t.get(key))
                .and_then(Json::as_array)
                .unwrap_or(&[])
        };
        let (width, rows) = (list("columns").len(), list("rows"));
        let finite = |v: &Json| {
            let v = v.as_array().unwrap_or(&[]);
            v.len() == width && v.iter().all(|x| x.as_f64().is_some_and(f64::is_finite))
        };
        let bad = rows.iter().position(|r| {
            !r.get("values").is_some_and(finite) || r.get("paper").is_some_and(|p| !finite(p))
        });
        match (table, bad) {
            (None, _) => gate.fail(format!("{section}: missing section")),
            _ if width == 0 || rows.is_empty() => {
                gate.fail(format!("{section}: no columns or no rows"))
            }
            (_, Some(i)) => gate.fail(format!(
                "{section}: rows[{i}] does not hold {width} finite numbers"
            )),
            _ => gate.pass(format!(
                "{section}: {} rows × {width} finite values",
                rows.len()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(section: &'static str) -> Table {
        let ratio = Row {
            paper: Some(vec![2.63, 36.4]),
            ..Row::new("ratio", vec![2.8215, -0.04])
        };
        let rows = [Row::new("GELU", vec![0.005216, 87.54]), ratio];
        Table::new(section, "a \"quoted\" title — Δ", "op", rows)
            .cols(5, ["L1"])
            .cols(1, ["score"])
            .shape("one\ntwo")
    }

    fn paper_ledger(tables: &[Table]) -> String {
        ledger(
            "paper",
            &[("kit_seed", Json::Num(crate::KIT_SEED as f64))],
            tables,
        )
    }

    fn gate(tables: &[Table]) -> Vec<String> {
        let mut gate = Gate::default();
        let doc = Json::parse(&paper_ledger(tables)).expect("valid JSON");
        check_ledger(&mut gate, &doc, SECTIONS);
        assert_eq!(gate.checks(), SECTIONS.split_whitespace().count());
        gate.failures
    }

    #[test]
    fn ledger_round_trips_a_table() {
        let t = table("fig2");
        let doc = Json::parse(&paper_ledger(std::slice::from_ref(&t))).expect("valid JSON");
        let s = doc.path("sections.fig2").expect("section recorded");
        // Each field as text: strings quoted, numbers as parsed.
        let field = |j: &Json, key: &str| {
            let text = |j: &Json| {
                j.as_array().map_or(j.to_string(), |a| {
                    a.iter().map(Json::to_string).collect::<Vec<_>>().join(" ")
                })
            };
            j.get(key).map(text)
        };
        assert_eq!(field(s, "title"), Some(format!("{:?}", t.title)));
        assert_eq!(field(s, "columns").as_deref(), Some(r#""L1" "score""#));
        let rows = s.get("rows").and_then(Json::as_array).unwrap();
        let rows: Vec<_> = rows
            .iter()
            .map(|r| ["label", "values", "paper"].map(|k| field(r, k)))
            .collect();
        let want = [
            [Some(r#""GELU""#), Some("0.00522 87.5"), None],
            [Some(r#""ratio""#), Some("2.8215 -0"), Some("2.63 36.4")],
        ];
        assert_eq!(
            rows,
            want.map(|r| r.map(|f| f.map(String::from))),
            "values at the printed precision"
        );
        let text = "GELU     0.00522   87.5\nratio    2.82150   -0.0\n  paper  2.63000   36.4\n";
        assert!(t.render().contains(text) && field(s, "shape") == Some(r#""one\ntwo""#.into()));
    }

    #[test]
    fn gate_fails_on_a_missing_section_or_a_non_finite_value() {
        let mut tables: Vec<Table> = SECTIONS.split_whitespace().map(table).collect();
        assert!(gate(&tables).is_empty());
        assert_eq!(gate(&tables[1..]), ["fig2: missing section"]);
        tables[3].rows[0].values[1] = f64::NAN;
        assert_eq!(
            gate(&tables),
            ["table2b: rows[0] does not hold 2 finite numbers"]
        );
    }
}
