//! Helpers of the sizing-job benchmark (`src/main.rs` drives the
//! workloads; see `README.md` for the command and the metric tables).
//!
//! Everything here observes the library from outside, through its public
//! API: [`probe::ProbedCircuit`] times `Circuit::evaluate` by delegation,
//! [`schedule`] builds and drives the open-loop arrival stream, [`stats`]
//! holds the percentile helpers, [`digest`] fingerprints deterministic
//! outputs so two runs can be compared bit for bit, and [`calibrate`]
//! corrects reported times for the host's current speed.

pub mod calibrate;
pub mod digest;
pub mod probe;
pub mod schedule;
pub mod stats;
