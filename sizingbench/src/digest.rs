//! FNV-1a fingerprints of deterministic job outputs.

use glova::campaign::CampaignResult;
use glova::report::RunResult;

/// A 64-bit FNV-1a accumulator over 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest, byte by byte.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds the exact bits of a float.
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }

    /// Folds a length-prefixed float slice.
    pub fn floats(&mut self, vs: &[f64]) -> &mut Self {
        self.word(vs.len() as u64);
        for &v in vs {
            self.float(v);
        }
        self
    }

    /// Folds an optional float slice (`None` and `Some(&[])` differ).
    pub fn opt_floats(&mut self, vs: Option<&[f64]>) -> &mut Self {
        match vs {
            Some(vs) => self.word(1).floats(vs),
            None => self.word(0),
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of every deterministic field of a paper-loop run: the
/// outcome, iteration and simulation counts and the verified design.
/// Wall time is excluded.
pub fn run_result(r: &RunResult) -> u64 {
    let mut d = Digest::default();
    d.word(u64::from(r.success))
        .word(r.rl_iterations as u64)
        .word(r.simulations)
        .word(r.verification_attempts as u64)
        .opt_floats(r.final_design.as_deref());
    d.value()
}

/// Fingerprint of every deterministic field of a campaign result: the
/// trajectory (rewards, sims, corner plans), the designs, the accounting
/// and the failure ledger. Step and campaign wall times are excluded.
pub fn campaign_result(r: &CampaignResult) -> u64 {
    let mut d = Digest::default();
    d.word(u64::from(r.success))
        .opt_floats(r.final_design.as_deref())
        .floats(&r.best_design)
        .float(r.best_reward)
        .word(r.init_sims)
        .word(r.sims_to_success.map_or(u64::MAX, |s| s))
        .word(r.total_sims)
        .word(r.pruning.full_steps)
        .word(r.pruning.pruned_steps)
        .word(r.pruning.corners_simulated)
        .word(r.pruning.corners_available)
        .opt_floats(r.goal_factors.as_deref())
        .word(r.termination as u64)
        .word(r.failures.nonconvergent)
        .word(r.failures.recovered)
        .word(r.failures.degraded)
        .word(r.steps.len() as u64);
    for s in &r.steps {
        d.word(s.step as u64)
            .word(s.active_corners as u64)
            .word(s.corner_count as u64)
            .word(s.sims)
            .float(s.worst_reward)
            .float(s.best_reward)
            .float(s.pass_fraction)
            .word(u64::from(s.full_grid));
    }
    match &r.yield_estimate {
        Some(y) => d.word(1).word(y.passes).word(y.samples),
        None => d.word(0),
    };
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_values_and_is_order_sensitive() {
        let mut a = Digest::default();
        a.word(1).word(2);
        let mut b = Digest::default();
        b.word(2).word(1);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.word(1).word(2);
        assert_eq!(a, c);
    }

    #[test]
    fn floats_distinguish_signed_zero_and_absent() {
        let mut pos = Digest::default();
        pos.float(0.0);
        let mut neg = Digest::default();
        neg.float(-0.0);
        assert_ne!(pos, neg);
        let mut none = Digest::default();
        none.opt_floats(None);
        let mut empty = Digest::default();
        empty.opt_floats(Some(&[]));
        assert_ne!(none, empty);
    }
}
