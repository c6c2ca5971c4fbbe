//! The unified kernel-dispatch trait.
//!
//! Every backend representation — host CSR, the cuda-sim CSR device
//! matrix, the cl-sim COO device matrix, tiled block storage — exposes
//! the same kernel set (SpGEMM and its masked / complement-masked
//! variants, the fused accumulate kernel, merge-add, the frontier
//! SpMSpV, reductions) through [`KernelDispatch`], so the `Matrix`
//! handle writes each operation's dispatch *once* instead of repeating
//! a four-way `match` per op, and fused kernels land on all three
//! backends and the blocked storage behind one entry point.
//!
//! Trait methods carry a `k_` prefix so they never shadow (or get
//! shadowed by) the inherent methods they delegate to.

use crate::backend::cl_sim::{self, DeviceCoo};
use crate::backend::cuda_sim::{self, DeviceCsr};
use crate::block::BlockMatrix;
use crate::error::Result;
use crate::format::csr::CsrBool;
use crate::index::Index;

/// Result of the fused accumulate kernel
/// `fresh = (A · B) ∧ ¬C; C' = C ∪ fresh`: the accumulated matrix, the
/// fresh-entry count (the fixpoint termination signal, produced by the
/// kernel itself — no separate `nnz` pass), and, when requested, the
/// fresh entries as a matrix (the next round's delta).
pub struct FusedAccum<M> {
    /// `C ∪ ((A · B) ∧ ¬C)`.
    pub acc: M,
    /// `nnz((A · B) ∧ ¬C)` — zero means the fixpoint converged.
    pub fresh_nnz: usize,
    /// The fresh entries, materialised only when the caller asked.
    pub fresh: Option<M>,
}

/// The kernel set every backend representation implements.
pub trait KernelDispatch: Sized {
    /// `C = A · B` (Boolean SpGEMM).
    fn k_mxm(&self, b: &Self) -> Result<Self>;
    /// `C = (A · B) ∧ M` (masked SpGEMM, mask applied in-kernel).
    fn k_mxm_masked(&self, b: &Self, mask: &Self) -> Result<Self>;
    /// `C = (A · B) ∧ ¬M` (complement-masked SpGEMM).
    fn k_mxm_compmask(&self, b: &Self, mask: &Self) -> Result<Self>;
    /// Fused semi-naïve step: `fresh = (a · b) ∧ ¬self`, accumulate
    /// `self ∪ fresh`, and return the fresh count — one kernel chain,
    /// no standalone intermediate product, no post-hoc `nnz` launch.
    fn k_mxm_accum_compmask(
        &self,
        a: &Self,
        b: &Self,
        want_fresh: bool,
    ) -> Result<FusedAccum<Self>>;
    /// `C = A + B` (merge-add / set union).
    fn k_ewise_add(&self, b: &Self) -> Result<Self>;
    /// `C = A ∧ B` (set intersection).
    fn k_ewise_mult(&self, b: &Self) -> Result<Self>;
    /// Frontier push `out = ⋃_{i ∈ set} A(i, :)` (row-gather SpMSpV);
    /// `set` is sorted, the result is sorted unique.
    fn k_vxm(&self, set: &[Index]) -> Result<Vec<Index>>;
    /// Frontier pull: same result as [`Self::k_vxm`], but the frontier
    /// arrives as dense bit-words and candidates accumulate into a
    /// dense bit-word accumulator — no sort, no dedup. Preferred when
    /// the frontier is dense enough that the gather multiset would dwarf
    /// the `ncols`-bit accumulator.
    fn k_vxm_pull(&self, frontier_words: &[u64]) -> Result<Vec<Index>>;
    /// Indices of non-empty rows.
    fn k_reduce_to_column(&self) -> Result<Vec<Index>>;
    /// Indices of non-empty columns.
    fn k_reduce_to_row(&self) -> Result<Vec<Index>>;
}

/// Enumerate the set bits of a dense bit-word frontier.
fn iter_words(words: &[u64], mut f: impl FnMut(Index)) {
    for (wi, &w) in words.iter().enumerate() {
        let mut bits = w;
        while bits != 0 {
            let b = bits.trailing_zeros();
            f(wi as Index * 64 + b);
            bits &= bits - 1;
        }
    }
}

/// Collect a dense bit-word accumulator back into sorted indices.
fn words_to_indices(words: &[u64]) -> Vec<Index> {
    let mut out = Vec::new();
    iter_words(words, |j| out.push(j));
    out
}

impl KernelDispatch for CsrBool {
    fn k_mxm(&self, b: &Self) -> Result<Self> {
        self.mxm(b)
    }
    fn k_mxm_masked(&self, b: &Self, mask: &Self) -> Result<Self> {
        self.mxm_masked(b, mask)
    }
    fn k_mxm_compmask(&self, b: &Self, mask: &Self) -> Result<Self> {
        self.mxm_compmask(b, mask)
    }
    fn k_mxm_accum_compmask(
        &self,
        a: &Self,
        b: &Self,
        want_fresh: bool,
    ) -> Result<FusedAccum<Self>> {
        let (acc, fresh_nnz, fresh) = self.mxm_accum_compmask(a, b, want_fresh)?;
        Ok(FusedAccum {
            acc,
            fresh_nnz,
            fresh,
        })
    }
    fn k_ewise_add(&self, b: &Self) -> Result<Self> {
        self.ewise_add(b)
    }
    fn k_ewise_mult(&self, b: &Self) -> Result<Self> {
        self.ewise_mult(b)
    }
    fn k_vxm(&self, set: &[Index]) -> Result<Vec<Index>> {
        Ok(self.vxm(set))
    }
    fn k_vxm_pull(&self, frontier_words: &[u64]) -> Result<Vec<Index>> {
        let mut acc = vec![0u64; (self.ncols() as usize).div_ceil(64)];
        iter_words(frontier_words, |i| {
            for &j in self.row(i) {
                acc[j as usize / 64] |= 1u64 << (j % 64);
            }
        });
        Ok(words_to_indices(&acc))
    }
    fn k_reduce_to_column(&self) -> Result<Vec<Index>> {
        Ok(self.reduce_to_column())
    }
    fn k_reduce_to_row(&self) -> Result<Vec<Index>> {
        Ok(self.reduce_to_row())
    }
}

impl KernelDispatch for BlockMatrix {
    fn k_mxm(&self, b: &Self) -> Result<Self> {
        self.mxm(b)
    }
    fn k_mxm_masked(&self, b: &Self, mask: &Self) -> Result<Self> {
        self.mxm_masked(b, mask)
    }
    fn k_mxm_compmask(&self, b: &Self, mask: &Self) -> Result<Self> {
        self.mxm_compmask(b, mask)
    }
    fn k_mxm_accum_compmask(
        &self,
        a: &Self,
        b: &Self,
        want_fresh: bool,
    ) -> Result<FusedAccum<Self>> {
        let (acc, fresh_nnz, fresh) = self.mxm_accum_compmask(a, b, want_fresh)?;
        Ok(FusedAccum {
            acc,
            fresh_nnz,
            fresh,
        })
    }
    fn k_ewise_add(&self, b: &Self) -> Result<Self> {
        self.ewise_add(b)
    }
    fn k_ewise_mult(&self, b: &Self) -> Result<Self> {
        self.ewise_mult(b)
    }
    fn k_vxm(&self, set: &[Index]) -> Result<Vec<Index>> {
        Ok(self.vxm(set))
    }
    fn k_vxm_pull(&self, frontier_words: &[u64]) -> Result<Vec<Index>> {
        Ok(self.vxm_pull(frontier_words))
    }
    fn k_reduce_to_column(&self) -> Result<Vec<Index>> {
        Ok(self.reduce_to_column())
    }
    fn k_reduce_to_row(&self) -> Result<Vec<Index>> {
        Ok(self.reduce_to_row())
    }
}

impl KernelDispatch for DeviceCsr {
    fn k_mxm(&self, b: &Self) -> Result<Self> {
        cuda_sim::spgemm_hash::mxm(self, b)
    }
    fn k_mxm_masked(&self, b: &Self, mask: &Self) -> Result<Self> {
        cuda_sim::spgemm_hash::mxm_masked(self, b, mask)
    }
    fn k_mxm_compmask(&self, b: &Self, mask: &Self) -> Result<Self> {
        cuda_sim::spgemm_hash::mxm_compmask(self, b, mask)
    }
    fn k_mxm_accum_compmask(
        &self,
        a: &Self,
        b: &Self,
        want_fresh: bool,
    ) -> Result<FusedAccum<Self>> {
        let (acc, fresh_nnz, fresh) =
            cuda_sim::spgemm_hash::mxm_accum_compmask(self, a, b, want_fresh)?;
        Ok(FusedAccum {
            acc,
            fresh_nnz,
            fresh,
        })
    }
    fn k_ewise_add(&self, b: &Self) -> Result<Self> {
        cuda_sim::merge_add::ewise_add(self, b)
    }
    fn k_ewise_mult(&self, b: &Self) -> Result<Self> {
        cuda_sim::merge_add::ewise_mult(self, b)
    }
    fn k_vxm(&self, set: &[Index]) -> Result<Vec<Index>> {
        cuda_sim::vector_ops::vxm(self, set)
    }
    fn k_vxm_pull(&self, frontier_words: &[u64]) -> Result<Vec<Index>> {
        cuda_sim::vector_ops::vxm_pull(self, frontier_words)
    }
    fn k_reduce_to_column(&self) -> Result<Vec<Index>> {
        cuda_sim::structure::reduce_to_column(self)
    }
    fn k_reduce_to_row(&self) -> Result<Vec<Index>> {
        cuda_sim::structure::reduce_to_row(self)
    }
}

impl KernelDispatch for DeviceCoo {
    fn k_mxm(&self, b: &Self) -> Result<Self> {
        cl_sim::esc_spgemm::mxm(self, b)
    }
    fn k_mxm_masked(&self, b: &Self, mask: &Self) -> Result<Self> {
        cl_sim::esc_spgemm::mxm_masked(self, b, mask)
    }
    fn k_mxm_compmask(&self, b: &Self, mask: &Self) -> Result<Self> {
        cl_sim::esc_spgemm::mxm_compmask(self, b, mask)
    }
    fn k_mxm_accum_compmask(
        &self,
        a: &Self,
        b: &Self,
        want_fresh: bool,
    ) -> Result<FusedAccum<Self>> {
        let (acc, fresh_nnz, fresh) =
            cl_sim::esc_spgemm::mxm_accum_compmask(self, a, b, want_fresh)?;
        Ok(FusedAccum {
            acc,
            fresh_nnz,
            fresh,
        })
    }
    fn k_ewise_add(&self, b: &Self) -> Result<Self> {
        cl_sim::merge_add::ewise_add(self, b)
    }
    fn k_ewise_mult(&self, b: &Self) -> Result<Self> {
        cl_sim::merge_add::ewise_mult(self, b)
    }
    fn k_vxm(&self, set: &[Index]) -> Result<Vec<Index>> {
        cl_sim::structure::vxm(self, set)
    }
    fn k_vxm_pull(&self, frontier_words: &[u64]) -> Result<Vec<Index>> {
        cl_sim::structure::vxm_pull(self, frontier_words)
    }
    fn k_reduce_to_column(&self) -> Result<Vec<Index>> {
        cl_sim::structure::reduce_to_column(self)
    }
    fn k_reduce_to_row(&self) -> Result<Vec<Index>> {
        cl_sim::structure::reduce_to_row(self)
    }
}
