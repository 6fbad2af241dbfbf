//! The comparison the one golden-matrix test
//! (`prepared_matrix_equals_the_recorded_rows`) ends with. The launch
//! matrix is part of the bench record, `BENCH_ci.txt`.

/// Panics unless `rows` are exactly the lines of `golden` (the committed
/// `tests/golden/<name>.txt`), leaving this build's rows in
/// `<name>.actual.txt` under the test tmpdir and naming the first rows
/// that moved.
pub fn assert_rows_equal(name: &str, rows: &[String], golden: &str) {
    let actual = rows.join("\n") + "\n";
    if actual == golden {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
    std::fs::write(&out, &actual).expect("write actual rows");
    let moved: Vec<&str> = rows
        .iter()
        .zip(golden.lines())
        .filter(|(a, g)| a != g)
        .map(|(a, _)| a.split(' ').next().unwrap())
        .collect();
    panic!(
        "{} of {} rows differ from the golden ({} recorded); first: {:?}; actual rows in {}",
        moved.len(),
        rows.len(),
        golden.lines().count(),
        &moved[..moved.len().min(8)],
        out.display()
    );
}
