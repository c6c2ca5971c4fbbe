//! Shared fixtures for the cross-crate integration tests.

use spbla_core::Instance;

/// One instance per backend, for "all backends agree" tests.
pub fn all_backends() -> Vec<Instance> {
    vec![Instance::cpu(), Instance::cuda_sim(), Instance::cl_sim()]
}

/// Deterministic pseudo-random pair list (xorshift; no rand dependency
/// needed at this layer).
pub fn pseudo_pairs(n: u32, nnz: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut s = seed | 1;
    let mut step = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..nnz)
        .map(|_| {
            let a = step();
            ((a >> 32) as u32 % n, a as u32 % n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_work() {
        assert_eq!(all_backends().len(), 3);
        let p = pseudo_pairs(10, 20, 7);
        assert_eq!(p.len(), 20);
        assert!(p.iter().all(|&(i, j)| i < 10 && j < 10));
        assert_eq!(p, pseudo_pairs(10, 20, 7));
    }
}
