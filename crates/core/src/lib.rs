//! # GLOVA — variation-aware analog sizing with risk-sensitive RL
//!
//! Reproduction of *"GLOVA: Global and Local Variation-Aware Analog
//! Circuit Design with Risk-Sensitive Reinforcement Learning"* (DAC 2025,
//! arXiv:2505.11208). This crate is the framework layer tying together the
//! substrates in the workspace:
//!
//! - [`SizingProblem`] — a
//!   [`Circuit`](glova_circuits::Circuit) plus a verification method
//!   (Table I), with simulation counting and hierarchical mismatch
//!   sampling (Eq. 3);
//! - the **evaluation engine** ([`engine`]) — deterministic sequential or
//!   multi-threaded fan-out of the Monte-Carlo / corner simulation
//!   batches, selected via [`GlovaConfig::engine`](optimizer::GlovaConfig)
//!   (results are bitwise-identical across engines);
//! - the **evaluation cache** ([`cache`]) — LRU memoization of repeated
//!   `(design, corner, mismatch)` points with exact-bit validation, so
//!   verifier re-sweeps and yield grids stop re-simulating identical
//!   points (results stay bitwise-identical with the cache on or off);
//! - the **optimization phase** ([`optimizer`]) — TuRBO initial sampling
//!   followed by the risk-sensitive RL loop of Algorithm 1 / Fig. 2, with
//!   the Table II baselines (PVTSizing, RobustAnalog, [`Framework`]) and
//!   the end-to-end sizing campaigns ([`campaign`]) as configurations of
//!   the same loop;
//! - the **verification phase** ([`verification`]) — Algorithm 2:
//!   [µ-σ evaluation](evaluation) (Eq. 7) and
//!   [simulation reordering](reorder) (t-SCORE, Eq. 8; h-SCORE,
//!   Eq. 9–10);
//! - ablation switches for Table III (disable the ensemble critic, the
//!   µ-σ gate, or the reordering — [`Framework::Glova`]);
//! - run reports ([`report`]) with iteration/simulation counts and the
//!   reliability-bound trace behind Fig. 3.
//!
//! # Quickstart
//!
//! ```
//! use glova::prelude::*;
//! use std::sync::Arc;
//!
//! // Size the synthetic toy circuit under corner-only verification.
//! let circuit = Arc::new(glova_circuits::ToyQuadratic::standard());
//! let config = GlovaConfig::quick(VerificationMethod::Corner);
//! let mut optimizer = GlovaOptimizer::new(circuit, config);
//! let result = optimizer.run(42);
//! assert!(result.success);
//! ```

pub mod cache;
pub mod campaign;
pub mod engine;
pub mod evaluation;
pub mod fault;
mod kmeans;
pub mod optimizer;
pub mod problem;
mod pvtsizing;
pub mod reorder;
pub mod report;
mod robustanalog;
pub mod verification;
pub mod yield_est;

pub use cache::{
    CachePolicy, CacheRegistry, CacheStats, EvalCache, EvalCacheConfig, RegistryConfig,
};
pub use campaign::{
    CampaignConfig, CampaignControl, CampaignResult, CampaignStep, CampaignTermination,
    PruningConfig, PruningStats, SizingCampaign,
};
pub use engine::{EngineSpec, EvalEngine, Sequential, Threaded};
pub use evaluation::MuSigmaEvaluation;
pub use fault::{FaultKind, FaultPlan};
pub use optimizer::{Framework, GlovaConfig, GlovaOptimizer};
pub use problem::SizingProblem;
pub use report::{IterationTrace, RunResult};
pub use verification::{VerificationOutcome, Verifier};
pub use yield_est::{estimate_yield, YieldEstimate};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::cache::{CachePolicy, EvalCacheConfig};
    pub use crate::campaign::{CampaignConfig, PruningConfig, SizingCampaign};
    pub use crate::engine::EngineSpec;
    pub use crate::optimizer::{Framework, GlovaConfig, GlovaOptimizer};
    pub use crate::problem::SizingProblem;
    pub use crate::report::RunResult;
    pub use glova_circuits::Circuit;
    pub use glova_variation::config::VerificationMethod;
}
