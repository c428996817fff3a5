//! The prose that tells a reader how to rerun an experiment: every
//! `` `repro <name>` `` that README.md, EXPERIMENTS.md and DESIGN.md cite
//! selects a row of `spate_bench::EXPERIMENTS`, and none of them sends a
//! reader to a bench harness the workspace no longer has. And README's
//! crate table: one row for every directory under `crates/`, and none
//! for a directory that is not there.

use spate_bench::select;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "EXPERIMENTS.md", "DESIGN.md"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(doc: &str) -> String {
    std::fs::read_to_string(root().join(doc)).expect(doc)
}

/// The experiment name of every `` `repro <name>…` `` code span in
/// `text`; a placeholder (`<drill>`, `…`) or a flag is no name.
fn cited(text: &str) -> Vec<&str> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|span| span.strip_prefix("repro"))
        .filter(|rest| rest.starts_with(char::is_whitespace))
        .filter_map(|rest| rest.split_whitespace().next())
        .filter(|name| name.starts_with(|c: char| c.is_ascii_lowercase()))
        .collect()
}

#[test]
fn every_cited_repro_command_selects_an_experiment() {
    for doc in DOCS {
        let text = read(doc);
        let names = cited(&text);
        assert!(!names.is_empty(), "{doc} cites no `repro` command");
        for name in names {
            assert!(
                !select(name).is_empty(),
                "{doc}: `repro {name}` runs nothing"
            );
        }
    }
    let spans = "`repro fig8\n--scale 1/2048` `repro <drill>` `repro` `reproduce x`";
    assert_eq!(cited(spans), ["fig8"]);
}

#[test]
fn no_doc_cites_cargo_bench() {
    for doc in DOCS {
        assert!(
            !read(doc).contains("cargo bench"),
            "{doc} cites `cargo bench`"
        );
    }
}

/// The directory each row of a markdown crate table names: the first
/// code span of a row that starts `` | `crates/ ``.
fn crate_rows(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|row| row.split('`').next())
        .filter(|dir| dir.starts_with("crates/"))
        .collect()
}

#[test]
fn the_readme_crate_table_has_a_row_for_every_crate_directory_and_no_other() {
    let readme = read("README.md");
    let rows = crate_rows(&readme);
    let mut dirs: Vec<String> = std::fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("a directory entry"))
        .filter(|entry| entry.path().is_dir())
        .map(|entry| format!("crates/{}", entry.file_name().to_string_lossy()))
        .collect();
    dirs.sort();
    for row in &rows {
        assert!(
            dirs.iter().any(|dir| dir == row),
            "README.md's crate table names `{row}`, which does not exist"
        );
    }
    for dir in &dirs {
        assert!(
            rows.contains(&dir.as_str()),
            "README.md's crate table has no row for `{dir}`"
        );
    }
    let table = "| Crate | What |\n|---|---|\n| `crates/core` (`spate-core`) | x |\n\
                 | `crates/obs` | y |\n| `src/lib.rs` | z |\n";
    assert_eq!(crate_rows(table), ["crates/core", "crates/obs"]);
}
