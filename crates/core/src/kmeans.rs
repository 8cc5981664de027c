//! Lloyd's k-means with k-means++ initialization.
//!
//! The RobustAnalog configuration of the paper-run loop
//! ([`Framework::RobustAnalog`](crate::optimizer::Framework)) clusters PVT
//! corners by their recent reward signatures to pick the dominant corner
//! of each cluster; the feature vectors are tiny
//! (tens of corners × a few features), so a simple dense implementation
//! is plenty.

use glova_stats::rng::Rng;

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Cluster index of every input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
}

/// Clusters `points` into `k` groups (Lloyd's algorithm, k-means++ seeds,
/// at most `max_iters` refinement rounds).
///
/// If `k >= points.len()`, every point gets its own cluster.
///
/// # Panics
///
/// Panics if `points` is empty, `k == 0`, or points have inconsistent
/// dimensions.
pub fn kmeans<R: Rng + ?Sized>(
    points: &[Vec<f64>],
    k: usize,
    max_iters: usize,
    rng: &mut R,
) -> KmeansResult {
    assert!(!points.is_empty(), "kmeans needs at least one point");
    assert!(k > 0, "kmeans needs at least one cluster");
    let dim = points[0].len();
    assert!(points.iter().all(|p| p.len() == dim), "ragged points");

    if k >= points.len() {
        return KmeansResult {
            assignments: (0..points.len()).collect(),
            centroids: points.to_vec(),
        };
    }

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    while centroids.len() < k {
        let dists: Vec<f64> = points
            .iter()
            .map(|p| centroids.iter().map(|c| dist2(p, c)).fold(f64::INFINITY, f64::min))
            .collect();
        let total: f64 = dists.iter().sum();
        if total <= 0.0 {
            // All points coincide with centroids; duplicate one.
            centroids.push(points[rng.gen_range(0..points.len())].clone());
            continue;
        }
        let mut threshold = rng.gen::<f64>() * total;
        let mut chosen = points.len() - 1;
        for (i, d) in dists.iter().enumerate() {
            threshold -= d;
            if threshold <= 0.0 {
                chosen = i;
                break;
            }
        }
        centroids.push(points[chosen].clone());
    }

    let mut assignments = vec![0usize; points.len()];
    for _ in 0..max_iters {
        // Assignment step.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let nearest = centroids
                .iter()
                .enumerate()
                .min_by(|a, b| dist2(p, a.1).partial_cmp(&dist2(p, b.1)).expect("finite"))
                .map(|(ci, _)| ci)
                .expect("k > 0");
            if assignments[i] != nearest {
                assignments[i] = nearest;
                changed = true;
            }
        }
        // Update step.
        for (ci, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<&Vec<f64>> =
                points.iter().zip(&assignments).filter(|(_, &a)| a == ci).map(|(p, _)| p).collect();
            if members.is_empty() {
                continue;
            }
            for d in 0..dim {
                centroid[d] = members.iter().map(|m| m[d]).sum::<f64>() / members.len() as f64;
            }
        }
        if !changed {
            break;
        }
    }
    KmeansResult { assignments, centroids }
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_stats::rng::seeded;

    #[test]
    fn separates_two_obvious_clusters() {
        let mut points = Vec::new();
        for i in 0..10 {
            points.push(vec![0.0 + i as f64 * 0.01, 0.0]);
            points.push(vec![5.0 + i as f64 * 0.01, 5.0]);
        }
        let mut rng = seeded(1);
        let result = kmeans(&points, 2, 50, &mut rng);
        // All even indices together, all odd together.
        let c0 = result.assignments[0];
        let c1 = result.assignments[1];
        assert_ne!(c0, c1);
        for (i, &a) in result.assignments.iter().enumerate() {
            assert_eq!(a, if i % 2 == 0 { c0 } else { c1 }, "point {i}");
        }
    }

    #[test]
    fn k_equal_n_gives_identity() {
        let points = vec![vec![1.0], vec![2.0], vec![3.0]];
        let mut rng = seeded(2);
        let result = kmeans(&points, 3, 10, &mut rng);
        assert_eq!(result.assignments, vec![0, 1, 2]);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let points = vec![vec![0.0], vec![2.0], vec![4.0]];
        let mut rng = seeded(3);
        let result = kmeans(&points, 1, 10, &mut rng);
        assert!(result.assignments.iter().all(|&a| a == 0));
        assert!((result.centroids[0][0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn identical_points_do_not_crash() {
        let points = vec![vec![1.0, 1.0]; 8];
        let mut rng = seeded(4);
        let result = kmeans(&points, 3, 10, &mut rng);
        assert_eq!(result.assignments.len(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_panics() {
        let mut rng = seeded(5);
        kmeans(&[], 2, 10, &mut rng);
    }
}
