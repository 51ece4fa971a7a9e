//! Writes every committed artifact in [`albireo_bench::ARTIFACTS`] to
//! ./results — the one way `results/*.csv` are made.
fn main() -> std::io::Result<()> {
    let dir = std::path::Path::new("results");
    let files = albireo_bench::export_csv(dir)?;
    println!("wrote {} files:", files.len());
    for f in files {
        println!("  {}", f.display());
    }
    Ok(())
}
