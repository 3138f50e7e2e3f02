//! Usage errors exit 2 with a message that says what is accepted.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
fn both_loaders_reject_a_grid_below_eight_vertices() {
    let dir = std::env::temp_dir().join(format!("parhde-cli-usage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let packed = dir.join("g.phdegrf");
    let layout = run(
        env!("CARGO_BIN_EXE_parhde-layout"),
        &["gen:grid:2x2", "--no-png"],
    );
    let pack = run(
        env!("CARGO_BIN_EXE_parhde-pack"),
        &["gen:grid:2x2", packed.to_str().unwrap()],
    );
    let wrote = packed.exists();
    let _ = std::fs::remove_dir_all(&dir);
    for (name, out) in [("parhde-layout", layout), ("parhde-pack", pack)] {
        assert_eq!(out.status.code(), Some(2), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{name}: bad generator spec \"gen:grid:2x2\"")),
            "{name}: {stderr}"
        );
    }
    assert!(!wrote, "parhde-pack wrote a snapshot for a bad spec");
}

#[test]
fn an_unknown_ortho_method_is_a_usage_error() {
    let out = run(
        env!("CARGO_BIN_EXE_parhde-layout"),
        &["gen:grid:40x40", "--ortho", "bcgs2"],
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mgs or cgs"), "{stderr}");
}
