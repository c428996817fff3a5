//! The prose that tells a reader how to rerun an experiment: every
//! `` `repro <name>` `` that README.md, EXPERIMENTS.md and DESIGN.md cite
//! selects a row of `spate_bench::EXPERIMENTS`, and none of them sends a
//! reader to a bench harness the workspace no longer has.

use spate_bench::select;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "EXPERIMENTS.md", "DESIGN.md"];

fn read(doc: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(doc)).expect(doc)
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
