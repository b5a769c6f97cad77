//! The four workloads. Each has a timed mode (end-to-end metrics through the
//! product entry point) and a traced mode (spans, layer probes).

pub mod matmul;
pub mod serve;
pub mod train;
