//! `parhde-layout --csv` prints its coordinates through the workspace's
//! float printer, which must give the bytes `{}` gives: each field is the
//! shortest text that reads back as its value.

use std::process::Command;

#[test]
fn every_csv_coordinate_prints_as_std_display() {
    let dir = std::env::temp_dir().join(format!("parhde-cli-csv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("layout.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_parhde-layout"))
        .args(["gen:grid:40x40", "--subspace", "10", "--no-png", "--csv"])
        .arg(&csv)
        .output()
        .expect("parhde-layout runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&csv).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("id,x,y"));
    let mut rows = 0;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 3, "row {line:?}");
        for f in &fields[1..] {
            let v: f64 = f.parse().unwrap_or_else(|e| panic!("{f:?}: {e}"));
            assert_eq!(format!("{v}"), *f);
        }
        rows += 1;
    }
    assert_eq!(rows, 1600);
}
