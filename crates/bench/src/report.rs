//! Machine-readable perf artifacts: `BENCH_<name>.json`.
//!
//! Every bench bin can serialize what it measured — wall time, simulation
//! throughput, speedup over the sequential reference engine, cache
//! counters — into a JSON report at the repo root, giving the project a
//! perf trajectory that CI can archive and gate on (see the `perf` job in
//! `.github/workflows/ci.yml`). The git revision is taken from the
//! `GLOVA_GIT_REV` or `GITHUB_SHA` environment variable, falling back to
//! `git rev-parse HEAD` for local runs, so artifacts are attributable
//! without a libgit dependency.
//!
//! Serialization is hand-rolled: the offline workspace has no `serde`,
//! and the schema is small enough that a correct writer is ~60 lines.
//! Floats use Rust's shortest-roundtrip `Display` (valid JSON for finite
//! values; non-finite values serialize as `null`).

use glova::cache::CacheStats;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Schema version stamped into every report (bump on breaking changes).
pub const SCHEMA_VERSION: u32 = 1;

/// One measured scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Scenario label, e.g. `yield_grid` or `verify_resweep`.
    pub scenario: String,
    /// Circuit under test.
    pub circuit: String,
    /// Engine spec string (`sequential`, `threaded:8`, …).
    pub engine: String,
    /// Batch size driving the scenario (e.g. samples per corner).
    pub batch: usize,
    /// Simulation requests issued (cache hits included — the
    /// accounting-invariant count).
    pub sims: u64,
    /// Circuit evaluations actually executed: `None` when no cache was
    /// attached (every request evaluated, `sims` is the count), else the
    /// cache's miss count. Distinguishes real simulation throughput from
    /// request throughput on cached records.
    pub evaluations: Option<u64>,
    /// Measured wall time, seconds.
    pub wall_seconds: f64,
    /// Throughput `sims / wall_seconds`.
    pub sims_per_sec: f64,
    /// Wall-time ratio vs the `Sequential` engine on the same scenario
    /// (`None` when this record *is* the sequential reference, or no
    /// reference was run).
    pub speedup_vs_sequential: Option<f64>,
    /// Evaluation-cache counters, when a cache was attached.
    pub cache: Option<CacheStats>,
}

impl BenchRecord {
    /// Builds a record, deriving the throughput.
    pub fn new(
        scenario: impl Into<String>,
        circuit: impl Into<String>,
        engine: impl Into<String>,
        batch: usize,
        sims: u64,
        wall: Duration,
    ) -> Self {
        let wall_seconds = wall.as_secs_f64();
        Self {
            scenario: scenario.into(),
            circuit: circuit.into(),
            engine: engine.into(),
            batch,
            sims,
            evaluations: None,
            wall_seconds,
            sims_per_sec: sims as f64 / wall_seconds.max(1e-12),
            speedup_vs_sequential: None,
            cache: None,
        }
    }

    /// Attaches the speedup vs the sequential reference (builder style).
    pub fn with_speedup(mut self, speedup: f64) -> Self {
        self.speedup_vs_sequential = Some(speedup);
        self
    }

    /// Attaches cache counters (builder style), recording the miss count
    /// as the number of circuit evaluations actually executed.
    pub fn with_cache(mut self, stats: CacheStats) -> Self {
        self.evaluations = Some(stats.misses);
        self.cache = Some(stats);
        self
    }

    fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"scenario\": {}", json_string(&self.scenario)),
            format!("\"circuit\": {}", json_string(&self.circuit)),
            format!("\"engine\": {}", json_string(&self.engine)),
            format!("\"batch\": {}", self.batch),
            format!("\"sims\": {}", self.sims),
            format!(
                "\"evaluations\": {}",
                self.evaluations.map_or_else(|| "null".to_string(), |e| e.to_string())
            ),
            format!("\"wall_seconds\": {}", json_f64(self.wall_seconds)),
            format!("\"sims_per_sec\": {}", json_f64(self.sims_per_sec)),
            format!(
                "\"speedup_vs_sequential\": {}",
                self.speedup_vs_sequential.map_or_else(|| "null".to_string(), json_f64)
            ),
        ];
        match self.cache {
            Some(stats) => fields.push(format!(
                "\"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {}}}",
                stats.hits,
                stats.misses,
                stats.evictions,
                json_f64(stats.hit_rate())
            )),
            None => fields.push("\"cache\": null".to_string()),
        }
        format!("    {{{}}}", fields.join(", "))
    }
}

/// A named collection of records, serializable to `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report name (`BENCH_<name>.json`).
    pub name: String,
    /// Git revision from `GLOVA_GIT_REV` / `GITHUB_SHA`, else from
    /// `git rev-parse HEAD`, if any of them resolves.
    pub git_rev: Option<String>,
    /// Measured scenarios.
    pub records: Vec<BenchRecord>,
}

/// `git rev-parse HEAD` in `dir` — run at the source tree, the
/// local-run fallback so checked-in artifacts stay attributable even
/// when no CI variable is exported (every pre-fallback `BENCH_*.json`
/// carried `git_rev: null`). `None` outside a git checkout.
fn git_rev_from_worktree(dir: &Path) -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    if rev.is_empty() {
        None
    } else {
        Some(rev)
    }
}

/// Resolves the git revision the same way [`BenchReport::new`] does —
/// `GLOVA_GIT_REV` first, then `GITHUB_SHA`, then `git rev-parse HEAD` —
/// exposed for bins that serialize custom-schema artifacts (the campaign
/// bin's `BENCH_campaign.json` trajectory document).
pub fn resolve_git_rev() -> Option<String> {
    std::env::var("GLOVA_GIT_REV")
        .or_else(|_| std::env::var("GITHUB_SHA"))
        .ok()
        .filter(|s| !s.is_empty())
        .or_else(|| git_rev_from_worktree(Path::new(env!("CARGO_MANIFEST_DIR"))))
}

/// Writes an arbitrary JSON document to `BENCH_<name>.json` at the
/// workspace root and returns the path — the custom-schema sibling of
/// [`BenchReport::write_to_repo_root`].
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json_to_repo_root(name: &str, json: &str) -> std::io::Result<PathBuf> {
    // crates/bench → workspace root, compile-time anchored so bins work
    // from any cwd.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels below the workspace root")
        .to_path_buf();
    let path = root.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

impl BenchReport {
    /// Creates an empty report, picking the git revision up from the
    /// environment (`GLOVA_GIT_REV` first, then `GITHUB_SHA`, then a
    /// `git rev-parse HEAD` of the source tree).
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), git_rev: resolve_git_rev(), records: Vec::new() }
    }

    /// Appends a record.
    pub fn push(&mut self, record: BenchRecord) {
        self.records.push(record);
    }

    /// The artifact file name, `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Serializes the report.
    pub fn to_json(&self) -> String {
        let records: Vec<String> = self.records.iter().map(BenchRecord::to_json).collect();
        format!(
            "{{\n  \"name\": {},\n  \"schema_version\": {},\n  \"git_rev\": {},\n  \"records\": [\n{}\n  ]\n}}\n",
            json_string(&self.name),
            SCHEMA_VERSION,
            self.git_rev.as_deref().map_or_else(|| "null".to_string(), json_string),
            records.join(",\n")
        )
    }

    /// Writes `BENCH_<name>.json` at the workspace root and returns the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_repo_root(&self) -> std::io::Result<PathBuf> {
        write_json_to_repo_root(&self.name, &self.to_json())
    }
}

/// JSON string escaping (control characters, quotes, backslashes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite floats via shortest-roundtrip `Display` (always valid JSON:
/// Rust renders integral floats as `1` only for `{:?}`… `Display` gives
/// `1` too, so force a decimal form), non-finite as `null`.
pub fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    // `Display` prints integral values without a decimal point, which is
    // still valid JSON, but normalize exponent-free integral forms to
    // keep consumers honest about the type.
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_derives_throughput() {
        let r = BenchRecord::new("s", "SAL", "sequential", 64, 1000, Duration::from_secs(2));
        assert_eq!(r.sims_per_sec, 500.0);
        assert_eq!(r.speedup_vs_sequential, None);
    }

    #[test]
    fn report_serializes_wellformed_json() {
        let mut report =
            BenchReport { name: "t".into(), git_rev: Some("abc123".into()), records: Vec::new() };
        report.push(
            BenchRecord::new(
                "yield_grid",
                "SAL",
                "threaded:4",
                64,
                1920,
                Duration::from_millis(250),
            )
            .with_speedup(2.5)
            .with_cache(CacheStats { hits: 10, misses: 30, evictions: 0 }),
        );
        let json = report.to_json();
        assert!(json.contains("\"name\": \"t\""));
        assert!(json.contains("\"git_rev\": \"abc123\""));
        assert!(json.contains("\"speedup_vs_sequential\": 2.5"));
        assert!(json.contains("\"hit_rate\": 0.25"));
        assert!(json.contains("\"sims\": 1920"));
        assert!(json.contains("\"evaluations\": 30"));
        // Balanced braces/brackets — cheap well-formedness smoke check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_f64_handles_nonfinite_and_integral() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.125), "0.125");
    }

    #[test]
    fn file_name_matches_convention() {
        assert_eq!(BenchReport::new("perfsuite").file_name(), "BENCH_perfsuite.json");
    }

    #[test]
    fn git_rev_worktree_fallback_resolves() {
        // Exercise the fallback directly rather than through
        // `BenchReport::new`, whose result depends on whatever
        // `GLOVA_GIT_REV`/`GITHUB_SHA` happen to be exported (and may
        // legitimately be non-hex strings), and on a throwaway
        // repository rather than the source tree, which need not be a
        // git checkout (an unpacked `git archive` is not).
        let root = std::env::temp_dir().join(format!("glova-git-rev-{}", std::process::id()));
        let repo = root.join("repo");
        let outside = root.join("outside");
        std::fs::create_dir_all(&repo).unwrap();
        std::fs::create_dir_all(&outside).unwrap();
        let git = |args: &[&str]| {
            let status = std::process::Command::new("git")
                .args(["-c", "user.name=t", "-c", "user.email=t@example.com"])
                .args(["-c", "commit.gpgsign=false"])
                .args(args)
                .current_dir(&repo)
                .output()
                .expect("git runs")
                .status;
            assert!(status.success(), "git {args:?} failed");
        };
        git(&["init", "-q"]);
        git(&["commit", "-q", "--allow-empty", "-m", "one commit"]);
        let rev = git_rev_from_worktree(&repo);
        let outside_rev = git_rev_from_worktree(&outside);
        std::fs::remove_dir_all(&root).unwrap();
        let rev = rev.expect("a repository with a commit resolves");
        assert!(rev.len() >= 7, "short/odd revision: {rev:?}");
        assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "non-hex revision: {rev:?}");
        assert_eq!(outside_rev, None, "a directory outside any repository has no revision");
        // And a report carries whatever revision the resolution order
        // finds (env or fallback), wherever the tree was unpacked.
        assert_eq!(BenchReport::new("t").git_rev, resolve_git_rev());
    }
}
