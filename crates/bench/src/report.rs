//! Where harnesses leave their machine-readable telemetry reports.

/// Write one JSON telemetry document into [`ft_telemetry::telemetry_dir`], reporting
/// the outcome on stdout/stderr (non-fatal on error).
pub fn write_report(file_name: &str, doc: &ft_telemetry::Json) {
    let out = ft_telemetry::telemetry_dir();
    let path = match std::fs::create_dir_all(&out).and_then(|()| out.canonicalize()) {
        Ok(canon) => canon.join(file_name),
        Err(_) => out.join(file_name),
    };
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("telemetry report written to {}", path.display()),
        Err(e) => eprintln!("could not write telemetry report to {}: {e}", path.display()),
    }
}
