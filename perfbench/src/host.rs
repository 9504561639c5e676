//! The run record's host stamp: machine, toolchain, build, source
//! identity, and non-blank Rust lines per crate.

use std::path::Path;
use std::process::Command;

use sdnav_json::Json;

/// Output of `program args…`, trimmed, or `"unknown"`.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn non_blank_lines(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|t| t.lines().filter(|l| !l.trim().is_empty()).count())
        .unwrap_or(0)
}

/// `{crate: non-blank .rs lines}` for every directory under `crates/`
/// (nested shim crates included), plus the root package's `src/`.
fn lines_per_crate(root: &Path) -> Json {
    let mut rows = Vec::new();
    let mut dirs: Vec<(String, std::path::PathBuf)> =
        vec![("sdn-availability".into(), root.join("src"))];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut found: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        found.sort();
        for dir in found {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if name == "shims" {
                if let Ok(shims) = std::fs::read_dir(&dir) {
                    let mut shims: Vec<_> =
                        shims.filter_map(|e| e.ok().map(|e| e.path())).collect();
                    shims.sort();
                    for shim in shims {
                        let shim_name = shim
                            .file_name()
                            .map(|n| n.to_string_lossy().into_owned())
                            .unwrap_or_default();
                        dirs.push((format!("shims/{shim_name}"), shim));
                    }
                }
            } else {
                dirs.push((name, dir));
            }
        }
    }
    for (name, dir) in dirs {
        let mut files = Vec::new();
        rust_files(&dir, &mut files);
        let lines: usize = files.iter().map(|f| non_blank_lines(f)).sum();
        rows.push((name, Json::Num(lines as f64)));
    }
    Json::Obj(rows)
}

/// SHA-256 over every workspace source file the benchmark builds from,
/// in path order: identifies the code in checkouts without git.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    for manifest in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(manifest));
    }
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    sdnav_chaos::sha256_hex(&bytes)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host block of a run record.
#[must_use]
pub fn stamp(nproc: usize) -> Json {
    let root = Path::new(".");
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(command_output("rustc", &["-V"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "commit",
            Json::str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("source_sha256", Json::str(source_digest(root))),
        ("lines_per_crate", lines_per_crate(root)),
    ])
}
