//! The "one of each" rules: one mechanism per job, each stated as a
//! pattern that no line of its files may match (DESIGN §9 says which
//! mechanism each rule keeps single). The pattern runs through `grep -nE`
//! exactly as written, over each file in turn; a rule over a file's
//! non-test part cuts the file at its test module first. Each rule also refuses a planted line, so a
//! pattern that stops matching what it was written for fails here too.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

struct Rule {
    name: &'static str,
    /// An extended regular expression no searched line may match.
    pattern: &'static str,
    /// Files and directories searched, relative to the repository root; a
    /// `*` component stands for every entry of its directory.
    paths: &'static [&'static str],
    /// Files and directories left out of `paths`.
    except: &'static [&'static str],
    /// A file is searched up to its first line that starts so.
    cut: Option<&'static str>,
    /// A line the rule refuses.
    planted: &'static str,
}

const RULES: &[Rule] = &[
    // Every format read back writes and reads through `obs::bytes`
    // (DESIGN §9.1): no other byte cursor, byte writer or LEB128 varint.
    Rule {
        name: "One byte layer",
        pattern: "struct (Reader|Writer)|fn (read|write)_varint|fn read_u64|fn write_u64",
        paths: &["crates/*/src"],
        except: &["crates/obs/src/bytes.rs"],
        cut: None,
        planted: "pub struct Reader<'a> {",
    },
    // Every file a store keeps per epoch is named by `EpochId::leaf_path`,
    // and every commit, index image included, goes through `dfs`'s staged
    // write and sweep (DESIGN §9.2): no other staging suffix, rename or
    // `<yyyy>/<mm>/<dd>` path format.
    Rule {
        name: "One file layer",
        pattern: r#"const TMP_SUFFIX|"\.tmp"|\.rename\(|\{[a-z_]*:04\}/\{[a-z_]*:02\}/\{[a-z_]*:02\}"#,
        paths: &["crates/*/src"],
        except: &["crates/dfs/src", "crates/telco-trace/src/time.rs"],
        cut: None,
        planted: r#"    let dir = format!("{year:04}/{month:02}/{day:02}");"#,
    },
    // Whether an epoch is stored as Path text or CAS columns is known to
    // `core::storage` alone, whose one walker lends its rows to the
    // query's one loop (DESIGN §9.3): the non-test part of `core::query`
    // names no `cas::`, `Snapshot::scan` or `EpochRows` …
    Rule {
        name: "One stored-epoch reader (the query's loop)",
        pattern: "cas::|Snapshot::scan|EpochRows",
        paths: &["crates/core/src/query.rs"],
        except: &[],
        cut: Some("mod tests"),
        planted: "use cas::EpochReader;",
    },
    // … and the text format has one row handler, a closure: `snapshot.rs`
    // declares no trait.
    Rule {
        name: "One stored-epoch reader (one row handler)",
        pattern: r"^\s*(pub(\([a-z]+\))? )?trait ",
        paths: &["crates/telco-trace/src/snapshot.rs"],
        except: &[],
        cut: None,
        planted: "pub(crate) trait RowSink {",
    },
    // Serve keeps a request's cancel flag, its `Trace`/`Profile` fence and
    // its cost profile in one entry of one request table (DESIGN §12): the
    // non-test part of `server.rs` declares no second store of profiles,
    // set of requests in flight or map of cancel flags.
    Rule {
        name: "One request table",
        pattern: "struct ProfileStore|struct Inflight|HashSet<u64>|HashMap<u64, CancelFlag>",
        paths: &["crates/serve/src/server.rs"],
        except: &[],
        cut: Some("mod frame_cuts;"),
        planted: "    cancels: Mutex<HashMap<u64, CancelFlag>>,",
    },
    // … and a request's trace settles in that entry beside its cost
    // profile, kept by whoever began it (DESIGN §6.2): `obs` keeps no
    // process-wide ring of trace events, and nothing files an event by
    // trace id from outside the request's own trace.
    Rule {
        name: "One request record",
        pattern: r"struct FlightRecorder|fn flight\(|instant_for",
        paths: &["crates/obs/src", "crates/serve/src"],
        except: &[],
        cut: None,
        planted: "pub fn flight() -> &'static FlightRecorder {",
    },
    // The temporal index is one rule at every level (DESIGN §9.4): a
    // `Node` per period of each resolution, keyed by `Resolution::periods`,
    // and one list of leaves; `core::index` declares no node type per
    // level.
    Rule {
        name: "One temporal node type",
        pattern: "struct (Year|Month|Day)Node",
        paths: &["crates/core/src/index"],
        except: &[],
        cut: None,
        planted: "pub struct DayNode {",
    },
    // An epoch's column image has one writer, `ColumnImage::of`, and one
    // checked reader, `ColumnTable::builder`, both in
    // `telco_trace::snapshot` (DESIGN §9.5): `crates/cas/src` declares no
    // text framer or run walker of its own.
    Rule {
        name: "One column image",
        pattern: "fn (line_end|parse_kv|split_table|assemble_table|copy_value|skip_values)",
        paths: &["crates/cas/src"],
        except: &[],
        cut: None,
        planted: "fn parse_kv(line: &[u8]) -> Option<(&[u8], &[u8])> {",
    },
    // Timing lives in `repro`'s perf fields and in `benchmark/`, a
    // workspace of its own: no workspace manifest declares a bench target
    // or a bench harness, and none is resolved into the lock file.
    Rule {
        name: "One timing harness",
        pattern: r"^\[\[bench\]\]|criterion",
        paths: &[
            "Cargo.toml",
            "Cargo.lock",
            "crates/*/Cargo.toml",
            "compat/*/Cargo.toml",
        ],
        except: &[],
        cut: None,
        planted: "criterion = { workspace = true }",
    },
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file at `dir` joined with `components`, relative to the root,
/// with `*` expanded and directories walked, in name order.
fn expand(dir: PathBuf, components: &[&str], out: &mut Vec<PathBuf>) {
    let entries = |dir: &Path| {
        let mut names: Vec<PathBuf> = std::fs::read_dir(root().join(dir))
            .map(|d| d.map(|e| dir.join(e.expect("a directory entry").file_name())))
            .into_iter()
            .flatten()
            .collect();
        names.sort();
        names
    };
    match components.split_first() {
        None if root().join(&dir).is_dir() => {
            for entry in entries(&dir) {
                expand(entry, &[], out);
            }
        }
        None => out.push(dir),
        Some((&"*", rest)) => {
            for entry in entries(&dir) {
                expand(entry, rest, out);
            }
        }
        Some((component, rest)) => expand(dir.join(component), rest, out),
    }
}

impl Rule {
    /// The files the rule searches. Each of its paths names at least one,
    /// so a moved file cannot leave a rule searching nothing.
    fn files(&self) -> Vec<PathBuf> {
        let mut files = Vec::new();
        for path in self.paths {
            let before = files.len();
            expand(
                PathBuf::new(),
                &path.split('/').collect::<Vec<_>>(),
                &mut files,
            );
            files.retain(|f| root().join(f).is_file());
            assert!(
                files.len() > before,
                "{}: `{path}` names no file",
                self.name
            );
        }
        files.retain(|f| !self.except.iter().any(|e| f.starts_with(e)));
        files
    }

    /// The part of `text` the rule searches.
    fn searched<'t>(&self, text: &'t str) -> &'t str {
        let Some(cut) = self.cut else { return text };
        let mut at = 0;
        for line in text.split_inclusive('\n') {
            if line.starts_with(cut) {
                return &text[..at];
            }
            at += line.len();
        }
        text
    }

    /// What `grep -nE` prints for the pattern over `text`, read as the
    /// file `label`: one `label:line:text` a match.
    fn grep(&self, label: &str, text: &str) -> String {
        let mut child = Command::new("grep")
            .args(["-nE", "-H", &format!("--label={label}"), "-e", self.pattern])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("grep starts");
        let mut stdin = child.stdin.take().expect("grep's stdin");
        stdin.write_all(text.as_bytes()).expect("grep reads");
        drop(stdin);
        let out = child.wait_with_output().expect("grep runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let ran = matches!(out.status.code(), Some(0 | 1));
        assert!(ran, "{}: {stderr}", self.name);
        String::from_utf8_lossy(&out.stdout).into_owned()
    }
}

fn read(file: &Path) -> String {
    std::fs::read_to_string(root().join(file)).unwrap_or_else(|e| panic!("{file:?}: {e}"))
}

#[test]
fn every_rule_holds_on_the_tree() {
    let mut broken = Vec::new();
    for rule in RULES {
        let grep = |f: &PathBuf| rule.grep(&f.display().to_string(), rule.searched(&read(f)));
        let found: String = rule.files().iter().map(grep).collect();
        if !found.is_empty() {
            broken.push(format!("{}:\n{found}", rule.name));
        }
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn every_rule_refuses_its_planted_line() {
    for rule in RULES {
        // At the top of a file the rule searches.
        let text = read(&rule.files()[0]);
        let planted = format!("{}\n{}", rule.planted, rule.searched(&text));
        let found = rule.grep("planted", &planted);
        assert!(found.starts_with("planted:1:"), "{}: {found:?}", rule.name);
        if let Some(cut) = rule.cut {
            // Past the cut, in the test module, the line is allowed.
            assert!(text.contains(&format!("\n{cut}")), "{}: no cut", rule.name);
            let tail = format!("fn f() {{}}\n{cut} {{\n{}\n}}\n", rule.planted);
            assert_eq!(
                rule.grep("planted", rule.searched(&tail)),
                "",
                "{}",
                rule.name
            );
        }
    }
}
