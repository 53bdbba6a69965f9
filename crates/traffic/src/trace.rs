//! Offline trace records (Netrace-style capture and replay).
//!
//! A [`TraceRecord`] is one packet-injection event. Traces can be captured
//! from a [`crate::TrafficGen`] run and replayed later, or exchanged as
//! JSON-lines files — the moral equivalent of Netrace's trace files.

use crate::workload::{TrafficGen, Workload, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

/// One packet-injection event in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Injection cycle.
    pub cycle: u64,
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dest: usize,
    /// Packet size in flits.
    pub size_flits: u8,
}

/// Captures a workload into a vector of trace records by running the
/// generator without any window throttling for `max_cycles` cycles.
pub fn capture_trace(
    spec: WorkloadSpec,
    width: usize,
    height: usize,
    seed: u64,
    max_cycles: u64,
) -> Vec<TraceRecord> {
    let n = width * height;
    let mut gen = TrafficGen::new(spec, width, height, seed);
    let mut out = Vec::new();
    for cycle in 0..max_cycles {
        for node in 0..n {
            if let Some(dest) = gen.poll(cycle, node, 0) {
                out.push(TraceRecord { cycle, src: node, dest, size_flits: 4 });
            }
        }
        if gen.is_exhausted() {
            break;
        }
    }
    out
}

/// Writes records as JSON lines.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_trace<W: Write>(mut w: W, records: &[TraceRecord]) -> io::Result<()> {
    for r in records {
        let line = serde_json::to_string(r).map_err(io::Error::other)?;
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Reads JSON-lines records.
///
/// # Errors
///
/// Returns any I/O error from the reader, or an `InvalidData` error when a
/// line fails to parse.
pub fn read_trace<R: BufRead>(r: R) -> io::Result<Vec<TraceRecord>> {
    let mut out = Vec::new();
    for line in r.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord = serde_json::from_str(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_produces_sorted_budgeted_trace() {
        let spec = WorkloadSpec::uniform(0.2, 3);
        let trace = capture_trace(spec, 4, 4, 5, 10_000);
        assert_eq!(trace.len(), 16 * 3);
        assert!(trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(trace.iter().all(|r| r.src < 16 && r.dest < 16 && r.src != r.dest));
    }

    #[test]
    fn trace_io_roundtrip() {
        let spec = WorkloadSpec::uniform(0.3, 2);
        let trace = capture_trace(spec, 4, 4, 6, 10_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn read_rejects_garbage() {
        let bad = b"not json\n";
        assert!(read_trace(io::BufReader::new(&bad[..])).is_err());
    }

    #[test]
    fn read_skips_blank_lines() {
        let input = b"\n{\"cycle\":1,\"src\":0,\"dest\":3,\"size_flits\":4}\n\n";
        let recs = read_trace(io::BufReader::new(&input[..])).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].dest, 3);
    }
}
