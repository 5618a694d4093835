//! Trace persistence: write an RPS trace as CSV, one `time_s,rps` row
//! per slot, so the synthetic generator's output can be archived and
//! plotted alongside experiment results.

use crate::diurnal::DiurnalTrace;
use deeppower_simd_server::SECOND;
use std::io::Write;
use std::path::Path;

/// Write a trace as `time_s,rps` CSV (with header).
pub fn save_trace_csv(trace: &DiurnalTrace, path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "time_s,rps")?;
    let slot_s = trace.slot_ns() as f64 / SECOND as f64;
    for (i, &rps) in trace.samples().iter().enumerate() {
        writeln!(f, "{},{}", i as f64 * slot_s, rps)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalConfig;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("deeppower-trace-{name}.csv"))
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let trace = DiurnalTrace::generate(&DiurnalConfig::default(), 5);
        let path = tmp("roundtrip");
        save_trace_csv(&trace, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("time_s,rps"));
        let rows: Vec<(f64, f64)> = lines
            .map(|l| {
                let (t, rps) = l.split_once(',').unwrap();
                (t.parse().unwrap(), rps.parse().unwrap())
            })
            .collect();
        assert_eq!(rows.len(), trace.n_slots());
        let slot_s = trace.slot_ns() as f64 / SECOND as f64;
        for (i, (&want, &(t, rps))) in trace.samples().iter().zip(&rows).enumerate() {
            assert_eq!(t, i as f64 * slot_s);
            assert_eq!(rps, want, "slot {i}");
        }
    }
}
