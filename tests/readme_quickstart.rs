//! README honesty check: the library listing in README.md must be the
//! verbatim example of the crate documentation in `src/lib.rs` (which
//! `cargo test` runs as a doctest), and the documented policy-selection
//! surface must exist.

#[test]
fn readme_quickstart_block_is_the_example_verbatim() {
    let readme = include_str!("../README.md");
    let doc: Vec<&str> = include_str!("../src/lib.rs")
        .lines()
        .filter_map(|line| line.strip_prefix("//!"))
        .map(|line| line.strip_prefix(' ').unwrap_or(line))
        .collect();
    let fence = |from: usize| from + doc[from..].iter().position(|l| *l == "```").unwrap();
    let open = fence(0);
    let example = doc[open + 1..fence(open + 1)].join("\n");
    assert!(
        readme.contains(&format!("```rust\n{example}\n```")),
        "README.md's library listing has drifted from the example in src/lib.rs's\n\
         crate documentation; paste it into the fenced block under\n\
         'The library quickstart, in full'"
    );
}

#[test]
fn readme_documents_policy_selection_and_the_glossary() {
    let readme = include_str!("../README.md");
    assert!(
        readme.contains("### Policy selection"),
        "README.md lost its policy-selection subsection"
    );
    for policy in ["`grouping`", "`attach`", "`elevator`"] {
        assert!(
            readme.contains(policy),
            "README.md policy-selection subsection no longer names {policy}"
        );
    }
    assert!(
        readme.contains("GLOSSARY.md"),
        "README.md no longer links GLOSSARY.md"
    );
}

#[test]
fn the_documented_policy_api_compiles_and_runs() {
    // The README tells library users to reach for SharingConfig::baseline;
    // keep that name honest.
    use scanshare_repro::core::{Placement, SharingConfig};
    let cfg = SharingConfig::baseline(128, Placement::Elevator);
    assert_eq!(cfg.placement, Placement::Elevator);
    assert!(!cfg.enable_throttling && !cfg.enable_priorities);
    assert_eq!(cfg.pool_pages, 128);
}

/// Every repository path the prose documents name — in backticks, in a
/// fenced recipe or bare — must exist, so a deleted or renamed file
/// cannot linger in a recipe. A path is a run of path characters that
/// starts at a top-level source directory; `file.rs:28` is checked as
/// `file.rs`, and `dir/*.ext` needs one file of that kind in `dir`.
#[test]
fn every_repo_path_the_docs_name_exists() {
    const ROOTS: [&str; 7] = [
        "scripts/",
        "results/",
        "crates/",
        "tests/",
        "examples/",
        "benchmark/",
        "vendor/",
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let exists = |path: &str| match path.split_once("/*") {
        None => root.join(path).exists(),
        Some((dir, ext)) => std::fs::read_dir(root.join(dir)).is_ok_and(|mut entries| {
            entries.any(|e| e.is_ok_and(|e| e.file_name().to_string_lossy().ends_with(ext)))
        }),
    };
    let mut missing = Vec::new();
    for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md", "GLOSSARY.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("the document exists");
        let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_./*-".contains(c);
        for token in text.split(|c| !is_path_char(c)) {
            let path = token.trim_end_matches('.');
            if ROOTS.iter().any(|r| path.starts_with(r)) && !exists(path) {
                missing.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "documents name paths that do not exist:\n{}",
        missing.join("\n")
    );
    // Line numbers drift with every edit; GLOSSARY names the item instead.
    let glossary = std::fs::read_to_string(root.join("GLOSSARY.md")).unwrap();
    let pinned: Vec<&str> = glossary
        .split(".rs:")
        .skip(1)
        .filter(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
        .collect();
    assert!(
        pinned.is_empty(),
        "GLOSSARY.md pins {} `file.rs:<line>` anchors; name the item instead",
        pinned.len()
    );
}

/// Every Rust name in backticks in GLOSSARY's `code` column occurs, as a
/// whole word, in at least one of the `.rs` files its row's `where`
/// column cites — judged by the name's last `::` or `.` segment without
/// `()` — so a renamed or deleted item cannot linger in the glossary.
/// Spans that are not a path of identifiers (`run --compare`,
/// `IdMap<PageId, u32>`) are prose, not names, and are skipped.
#[test]
fn every_glossary_name_occurs_in_a_file_its_row_cites() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let glossary = std::fs::read_to_string(root.join("GLOSSARY.md")).unwrap();
    let ticked = |cell: &str| -> Vec<String> {
        cell.split('`')
            .skip(1)
            .step_by(2)
            .map(str::to_owned)
            .collect()
    };
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let (mut checked, mut missing) = (0, Vec::new());
    for row in glossary.lines().filter(|l| l.starts_with('|')) {
        let cells: Vec<&str> = row.split('|').collect();
        let [_, _, code, cited, _] = cells[..] else {
            panic!("GLOSSARY.md row without three columns: {row}");
        };
        let files: Vec<String> = ticked(cited)
            .into_iter()
            .filter(|path| path.ends_with(".rs"))
            .map(|path| std::fs::read_to_string(root.join(&path)).expect("cited files exist"))
            .collect();
        for span in ticked(code) {
            let path = span.trim_end_matches("()");
            let is_name = path.split("::").flat_map(|s| s.split('.')).all(|segment| {
                segment.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                    && segment.chars().all(is_ident)
            });
            if !is_name {
                continue;
            }
            let name = path.rsplit(['.', ':']).next().unwrap();
            checked += 1;
            if !files.iter().any(|text| occurs_as_word(text, name)) {
                missing.push(format!("`{span}` (row: {})", cells[1].trim()));
            }
        }
    }
    assert!(
        checked >= 40,
        "only {checked} glossary names found; did the table change shape?"
    );
    assert!(
        missing.is_empty(),
        "GLOSSARY.md names items no file of their row defines or uses:\n{}",
        missing.join("\n")
    );
}

/// Whether `name` occurs in `text` with no identifier character on
/// either side.
fn occurs_as_word(text: &str, name: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name).any(|(at, _)| {
        !text[..at].ends_with(is_ident) && !text[at + name.len()..].starts_with(is_ident)
    })
}

/// Every backticked `core::…`, `engine::…` or `storage::…` path in
/// DESIGN.md §2–3 (the inventory and the module map) resolves: the
/// longest prefix of it that is a module file (`core::a::b` tries
/// `crates/core/src/a/b.rs`, then `crates/core/src/a.rs`) exists, and the
/// segments after that prefix, and every segment of each backticked name
/// in the parentheses right after the path, occur as whole words in that
/// file — so a renamed module or item cannot linger in the map.
#[test]
fn every_design_module_map_path_resolves() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let from = design.find("\n## 2. ").expect("DESIGN.md has a §2");
    let to = design.find("\n## 4. ").expect("DESIGN.md has a §4");
    let (mut checked, mut missing) = (0, Vec::new());
    for line in design[from..to].lines() {
        // Even pieces are prose, odd pieces are backticked spans.
        let pieces: Vec<&str> = line.split('`').collect();
        for (i, span) in pieces.iter().enumerate().skip(1).step_by(2) {
            let Some((krate, rest)) = span.split_once("::") else {
                continue;
            };
            if !["core", "engine", "storage"].contains(&krate) {
                continue;
            }
            checked += 1;
            let segments: Vec<&str> = rest.split("::").collect();
            let src = root.join("crates").join(krate).join("src");
            let Some((file, depth)) = (1..=segments.len()).rev().find_map(|n| {
                let file = src.join(segments[..n].join("/") + ".rs");
                std::fs::read_to_string(file).ok().map(|text| (text, n))
            }) else {
                missing.push(format!("`{span}`: no module file"));
                continue;
            };
            let mut names = segments[depth..].to_vec();
            let mut after = i + 1;
            if pieces[after].starts_with(" (") {
                while after + 1 < pieces.len() && !pieces[after].contains(')') {
                    names.extend(pieces[after + 1].trim_end_matches("()").split("::"));
                    after += 2;
                }
            }
            for name in names.into_iter().filter(|n| !occurs_as_word(&file, n)) {
                missing.push(format!("`{span}`: no `{name}` in its module file"));
            }
        }
    }
    assert!(
        checked >= 15,
        "only {checked} module paths found in DESIGN.md §2–3; did the map change shape?"
    );
    assert!(
        missing.is_empty(),
        "DESIGN.md §2–3 names modules or items that do not exist:\n{}",
        missing.join("\n")
    );
}

/// Every `scanshare` command line in a fenced block of the documents —
/// after `cargo run … --bin scanshare --`, after `$BIN`, or at the start
/// of a line — parses against the CLI's flag table, so a recipe cannot
/// name a command or flag that does not exist. `\` continuations are
/// joined and a line is cut at `#`, `|`, `>` or `&&`; nothing is run.
#[test]
fn every_documented_scanshare_invocation_parses() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut refused = Vec::new();
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect("the document exists");
        let (mut fenced, mut line, mut found) = (false, String::new(), 0);
        for raw in text.lines() {
            if raw.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if !fenced {
                continue;
            }
            if let Some(head) = raw.strip_suffix('\\') {
                line += head;
                continue;
            }
            line += raw;
            let joined = std::mem::take(&mut line);
            let cmd = joined.split(['#', '|', '>']).next().unwrap();
            let cmd = cmd.split("&&").next().unwrap().trim();
            let argv = ["--bin scanshare --", "$BIN "]
                .iter()
                .find_map(|prefix| cmd.split_once(prefix).map(|(_, argv)| argv))
                .or_else(|| cmd.strip_prefix("scanshare "));
            let Some(argv) = argv else {
                continue;
            };
            found += 1;
            let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
            if let Err(e) = scanshare_cli::parse(&argv) {
                let why = e.message.lines().next().unwrap_or_default().to_string();
                refused.push(format!("{doc}: `{cmd}`: {why}"));
            }
        }
        assert!(
            found > 0 || doc == "DESIGN.md",
            "{doc}: no scanshare invocation found; did the recipe format change?"
        );
    }
    assert!(
        refused.is_empty(),
        "documented invocations the CLI refuses:\n{}",
        refused.join("\n")
    );
}
