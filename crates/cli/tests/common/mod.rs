//! What the CLI tests share: the `intellinoc` binary, run on a command line
//! in a directory of the test's own, and the files a command wrote there.

// Each test file uses its own subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::Command;

/// The binary under test.
pub const BIN: &str = env!("CARGO_BIN_EXE_intellinoc");

/// A fresh, empty scratch directory for one test, named by `tag` and the
/// test process.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("intellinoc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the binary with `line` split on whitespace, in `cwd`: (exit code,
/// stdout, stderr).
pub fn intellinoc(cwd: impl AsRef<Path>, line: &str) -> (i32, String, String) {
    let out = Command::new(BIN)
        .args(line.split_whitespace())
        .current_dir(cwd.as_ref())
        .output()
        .expect("spawn intellinoc");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("UTF-8 output");
    (out.status.code().expect("exit code"), text(out.stdout), text(out.stderr))
}

/// [`intellinoc`], requiring exit 0; returns stdout.
pub fn ok(cwd: impl AsRef<Path>, line: &str) -> String {
    let (code, out, err) = intellinoc(cwd, line);
    assert_eq!(code, 0, "{line}: {err}");
    out
}

/// The text file `name` under `dir`.
pub fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("reading {name}: {e}"))
}
