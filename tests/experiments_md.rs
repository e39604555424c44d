//! EXPERIMENTS.md quotes measured tables by hand. This pins its Figure 3
//! table to `tests/golden/fig3.txt`, the bytes `repro fig3` prints, so
//! the two cannot drift apart. It reads both files and runs no
//! simulation.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The rows under the table's `TRFD_4 ...` column header up to the first
/// blank line or fence, each as its label followed by the measured and
/// paper values. Parentheses and the golden's `p` marker are dropped, so
/// `0.96 (p 0.95)` and `0.96 (0.95)` read alike.
fn rows<'a>(mut lines: impl Iterator<Item = &'a str>) -> Vec<Vec<String>> {
    lines
        .by_ref()
        .find(|l| l.trim_start().starts_with("TRFD_4"))
        .expect("the table's column header");
    let rows: Vec<Vec<String>> = lines
        .take_while(|l| !l.trim().is_empty() && !l.starts_with("```"))
        .map(|l| {
            l.split_whitespace()
                .map(|t| t.trim_matches(|c| c == '(' || c == ')'))
                .filter(|t| !t.is_empty() && *t != "p")
                .map(str::to_string)
                .collect()
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

#[test]
fn experiments_md_figure3_table_matches_the_golden() {
    let golden = read("tests/golden/fig3.txt");
    let doc = read("EXPERIMENTS.md");
    let section = doc
        .split("## Figure 3")
        .nth(1)
        .expect("EXPERIMENTS.md has a Figure 3 section");
    let want = rows(golden.lines());
    assert_eq!(want.len(), 8, "the golden's eight ladder systems");
    assert_eq!(
        rows(section.lines()),
        want,
        "EXPERIMENTS.md's Figure 3 table disagrees with tests/golden/fig3.txt"
    );
}
