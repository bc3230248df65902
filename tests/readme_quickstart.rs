//! README honesty check: the quickstart listing in README.md must be the
//! verbatim contents of `examples/quickstart.rs`, and the documented
//! policy-selection surface must exist.

#[test]
fn readme_quickstart_block_is_the_example_verbatim() {
    let readme = include_str!("../README.md");
    let example = include_str!("../examples/quickstart.rs");
    assert!(
        readme.contains(example.trim_end()),
        "README.md's quickstart listing has drifted from examples/quickstart.rs;\n\
         paste the file's current contents into the fenced block under\n\
         'The quickstart example, in full'"
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
    // The README tells library users to reach for SharingConfig::with_policy;
    // keep that name honest.
    use scanshare_repro::core::{SharingConfig, SharingPolicyKind};
    let cfg = SharingConfig::with_policy(128, SharingPolicyKind::Elevator);
    assert_eq!(cfg.policy, SharingPolicyKind::Elevator);
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
}
