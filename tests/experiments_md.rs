//! EXPERIMENTS.md quotes measured tables by hand. This pins its Figure 3
//! table to `tests/golden/fig3.txt`, and its headline table and Table 4
//! numbers to `tests/golden/headline.txt` and `tests/golden/table4.txt`,
//! the bytes `repro` prints, so the docs and the goldens cannot drift
//! apart. It reads the files and runs no simulation.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The rows under the table's `TRFD_4 ...` column header up to the first
/// blank line or fence, each as its label followed by the measured and
/// paper values. Parentheses and the golden's `p` marker are dropped, so
/// `0.96 (p 0.95)` and `0.96 (0.95)` read alike; a label of several words
/// is kept as one entry.
fn rows<'a>(mut lines: impl Iterator<Item = &'a str>) -> Vec<Vec<String>> {
    lines
        .by_ref()
        .find(|l| l.trim_start().starts_with("TRFD_4"))
        .expect("the table's column header");
    let rows: Vec<Vec<String>> = lines
        .take_while(|l| !l.trim().is_empty() && !l.starts_with("```"))
        .map(|l| {
            let mut tokens: Vec<String> = l
                .split_whitespace()
                .map(|t| t.trim_matches(|c| c == '(' || c == ')'))
                .filter(|t| !t.is_empty() && *t != "p")
                .map(str::to_string)
                .collect();
            let values = tokens.split_off(tokens.len().saturating_sub(8));
            std::iter::once(tokens.join(" ")).chain(values).collect()
        })
        .collect();
    for row in &rows {
        assert_eq!(
            row.len(),
            9,
            "label plus four (measured, paper) pairs: {row:?}"
        );
    }
    rows
}

/// The text of EXPERIMENTS.md's section `heading`, up to the next
/// section.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let body = doc
        .split(heading)
        .nth(1)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has a {heading:?} section"));
    body.split("\n## ").next().unwrap()
}

/// `values` as EXPERIMENTS.md quotes them: a single value as is, several
/// as `smallest–largest`, each keeping its golden digits, then `unit`.
fn span(values: &[String], unit: &str) -> String {
    let num = |v: &&String| v.parse::<f64>().expect("a number");
    let lo = values.iter().min_by(|a, b| num(a).total_cmp(&num(b)));
    let hi = values.iter().max_by(|a, b| num(a).total_cmp(&num(b)));
    match (lo, hi) {
        (Some(lo), Some(hi)) if lo != hi => format!("{lo}–{hi}{unit}"),
        (Some(v), _) => format!("{v}{unit}"),
        _ => panic!("no values"),
    }
}

#[test]
fn experiments_md_figure3_table_matches_the_golden() {
    let golden = read("tests/golden/fig3.txt");
    let doc = read("EXPERIMENTS.md");
    let want = rows(golden.lines());
    assert_eq!(want.len(), 8, "the golden's eight ladder systems");
    assert_eq!(
        rows(section(&doc, "## Figure 3").lines()),
        want,
        "EXPERIMENTS.md's Figure 3 table disagrees with tests/golden/fig3.txt"
    );
}

#[test]
fn experiments_md_headline_and_table4_match_the_goldens() {
    let doc = read("EXPERIMENTS.md");
    // Table 4 golden rows: small copies, read-only small copies, misses
    // eliminated by deferral; measured values at odd positions, paper
    // values at even ones.
    let table4 = rows(read("tests/golden/table4.txt").lines());
    assert_eq!(table4.len(), 3, "the Table 4 golden's three rows");
    let pick = |row: &[String], first: usize| -> Vec<String> {
        row[first..].iter().step_by(2).cloned().collect()
    };
    let (measured, paper): (Vec<_>, Vec<_>) =
        table4.iter().map(|r| (pick(r, 1), pick(r, 2))).unzip();

    // The headline golden: `label:  values...  (paper: value)`.
    let headline = read("tests/golden/headline.txt");
    let claim = |label: &str| -> (String, String) {
        let line = headline
            .lines()
            .find(|l| l.starts_with(label))
            .unwrap_or_else(|| panic!("headline golden has {label:?}"));
        let (values, paper) = line[label.len()..]
            .split_once("(paper:")
            .expect("a paper value");
        let values: Vec<String> = values
            .split_whitespace()
            .map(|v| v.trim_end_matches('%').to_string())
            .collect();
        let paper = paper.trim().trim_end_matches(')').replace('-', "–");
        (span(&values, "%"), paper)
    };

    // Each headline-table row: its (paper, measured) cells, the measured
    // cell's first word with the bold markers dropped.
    let table = section(&doc, "## Headline claims");
    let cells = |prefix: &str| -> (String, String) {
        let line = table
            .lines()
            .find(|l| l.starts_with(&format!("| {prefix}")))
            .unwrap_or_else(|| panic!("headline table has a {prefix:?} row"));
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let measured = cells[3].split_whitespace().next().unwrap_or("");
        (cells[2].to_string(), measured.replace("**", ""))
    };
    for (row, want) in [
        (
            "OS data misses",
            claim("OS data misses eliminated or hidden:"),
        ),
        ("OS execution-time", claim("OS execution-time reduction:")),
        ("`Blk_Dma` alone", claim("Blk_Dma alone, per workload:")),
        (
            "Deferred copy",
            (span(&measured[2], "%"), span(&paper[2], "%")),
        ),
    ] {
        let (doc_paper, doc_measured) = cells(row);
        assert_eq!(doc_measured, want.0, "headline {row:?}: measured");
        assert_eq!(doc_paper, want.1, "headline {row:?}: paper");
    }

    let prose = section(&doc, "## Table 4");
    let prose = prose.split_whitespace().collect::<Vec<_>>().join(" ");
    for quoted in [
        format!("{}% (paper {})", measured[0].join("/"), paper[0].join("/")),
        format!(
            "{} (paper {})",
            span(&measured[1], "%"),
            span(&paper[1], "%")
        ),
        format!(
            "{} (paper {})",
            span(&measured[2], "%"),
            span(&paper[2], "%")
        ),
    ] {
        assert!(
            prose.contains(&quoted),
            "EXPERIMENTS.md's Table 4 section does not quote {quoted:?} \
             from tests/golden/table4.txt"
        );
    }
}
