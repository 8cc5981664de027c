//! Baseline variation-aware sizing frameworks — the comparison points of
//! the paper's Table II.
//!
//! Both are reimplemented from their published descriptions (closed
//! source; see `docs/DESIGN.md` §2):
//!
//! - [`PvtSizing`] — *"PVTSizing: a TuRBO-RL-based batch-sampling
//!   optimization framework for PVT-robust analog circuit synthesis"*
//!   (DAC 2024, the paper's ref \[9\]). TuRBO initial sampling like GLOVA,
//!   but every RL iteration simulates **all** PVT corners (batch
//!   sampling), the critic is risk-neutral, and verification has neither
//!   the µ-σ gate nor simulation reordering.
//! - [`RobustAnalog`] — *"RobustAnalog: fast variation-aware analog
//!   circuit design via multi-task RL"* (MLCAD 2022, ref \[8\]).
//!   **Random** initial sampling; corners are treated as tasks and
//!   clustered with k-means so only dominant corners are simulated each
//!   iteration; risk-neutral critic; no µ-σ, no reordering.
//!
//! Both reuse the workspace's simulation, agent and verification
//! machinery so that Table II differences come from the *algorithms*, not
//! implementation quality.

pub mod kmeans;
pub mod pvtsizing;
pub mod robustanalog;

pub use kmeans::kmeans;
pub use pvtsizing::PvtSizing;
pub use robustanalog::RobustAnalog;
