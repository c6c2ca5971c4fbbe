//! Block-row distributed Boolean matrices and their scaled-out kernels.
//!
//! A [`DistMatrix`] splits a matrix into contiguous block-row shards,
//! shard `i` resident on device `i` of a [`DeviceGrid`]. The partition
//! is described by `p + 1` row offsets, so ragged shards (uneven row
//! counts, trailing empty shards when `p > nrows`) are first-class.
//!
//! The distributed SpGEMM is the round-robin all-gather schedule:
//! `C_i = ⋁_k A_i[:, rows_B(k)] · B_k`, where round `k` fetches the one
//! remote shard `B_k` to device `i`, multiplies, folds into the local
//! accumulator, and *drops the fetched shard before the next round* —
//! at most one remote shard is ever resident, so per-device peak bytes
//! shrink as the grid grows. Rounds whose local column slice
//! `A_i[:, rows_B(k)]` is empty skip the fetch entirely, which is where
//! sparse workloads save most of the all-gather volume. Masked and
//! complement-masked products ride the same schedule: the mask
//! distributes over the per-round union
//! (`(⋁_k A_k·B_k) ∧ M = ⋁_k (A_k·B_k ∧ M)`), so each round applies the
//! *local* mask shard inside the single-device kernel from PR 1.

use spbla_core::{CsrBool, Index, Matrix, Pair, Result, SpblaError};

use crate::grid::{block_row_offsets, DeviceGrid};

/// Which mask semantics a masked product round applies.
#[derive(Clone, Copy)]
enum MaskKind {
    /// `C = (A·B) ∧ M`.
    Keep,
    /// `C = (A·B) ∧ ¬M`.
    Drop,
}

/// Result of the fused distributed accumulate-product
/// [`DistMatrix::mxm_accum_compmask`]: the grown accumulator, the
/// grid-total count of fresh cells (the fixpoint termination signal,
/// read off the per-shard fused kernels — no extra `nnz` reduction),
/// and the fresh cells themselves when requested.
#[derive(Debug)]
pub struct FusedDistProduct {
    /// `C ∨ ((A·B) ∧ ¬C)`, sharded on `C`'s partition.
    pub acc: DistMatrix,
    /// Total fresh cells across all shards.
    pub fresh_nnz: usize,
    /// The fresh cells `(A·B) ∧ ¬C` as their own distributed matrix,
    /// present iff `want_fresh` was set.
    pub fresh: Option<DistMatrix>,
}

/// A sparse Boolean matrix sharded by block-rows across a device grid.
#[derive(Debug)]
pub struct DistMatrix {
    grid: DeviceGrid,
    /// `p + 1` shard boundaries; shard `i` owns global rows
    /// `offsets[i] .. offsets[i + 1]`.
    offsets: Vec<Index>,
    ncols: Index,
    shards: Vec<Matrix>,
}

impl DistMatrix {
    /// Shard a host CSR matrix over `grid` with the balanced default
    /// block-row partition.
    pub fn from_csr(grid: &DeviceGrid, host: &CsrBool) -> Result<DistMatrix> {
        let offsets = block_row_offsets(host.nrows(), grid.len());
        DistMatrix::from_csr_with_offsets(grid, host, offsets)
    }

    /// Shard a host CSR matrix with caller-chosen (possibly ragged)
    /// shard boundaries.
    pub fn from_csr_with_offsets(
        grid: &DeviceGrid,
        host: &CsrBool,
        offsets: Vec<Index>,
    ) -> Result<DistMatrix> {
        validate_offsets(&offsets, grid.len(), host.nrows())?;
        let mut shards = Vec::with_capacity(grid.len());
        for i in 0..grid.len() {
            let (lo, hi) = (offsets[i], offsets[i + 1]);
            let piece = host.submatrix(lo, 0, hi - lo, host.ncols())?;
            shards.push(Matrix::from_csr(grid.instance(i), piece)?);
        }
        Ok(DistMatrix {
            grid: grid.clone(),
            offsets,
            ncols: host.ncols(),
            shards,
        })
    }

    /// Build from coordinate pairs (balanced partition).
    pub fn from_pairs(
        grid: &DeviceGrid,
        nrows: Index,
        ncols: Index,
        pairs: &[Pair],
    ) -> Result<DistMatrix> {
        DistMatrix::from_csr(grid, &CsrBool::from_pairs(nrows, ncols, pairs)?)
    }

    /// An empty distributed matrix.
    pub fn zeros(grid: &DeviceGrid, nrows: Index, ncols: Index) -> Result<DistMatrix> {
        DistMatrix::from_csr(grid, &CsrBool::zeros(nrows, ncols))
    }

    /// The distributed identity of order `n`.
    pub fn identity(grid: &DeviceGrid, n: Index) -> Result<DistMatrix> {
        DistMatrix::from_csr(grid, &CsrBool::identity(n))
    }

    /// The owning grid.
    pub fn grid(&self) -> &DeviceGrid {
        &self.grid
    }

    /// Number of global rows.
    pub fn nrows(&self) -> Index {
        *self.offsets.last().expect("offsets non-empty")
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// `(nrows, ncols)`.
    pub fn shape(&self) -> (Index, Index) {
        (self.nrows(), self.ncols)
    }

    /// Total `true` cells across all shards.
    pub fn nnz(&self) -> usize {
        self.shards.iter().map(Matrix::nnz).sum()
    }

    /// Whether no shard holds a `true` cell.
    pub fn is_empty(&self) -> bool {
        self.nnz() == 0
    }

    /// The shard boundaries (`p + 1` entries).
    pub fn offsets(&self) -> &[Index] {
        &self.offsets
    }

    /// The per-device shards, in slot order.
    pub fn shards(&self) -> &[Matrix] {
        &self.shards
    }

    /// Total storage bytes across the grid.
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(Matrix::memory_bytes).sum()
    }

    /// Collect the full matrix on the host, row-major — bit-identical
    /// to the single-device result of the same computation.
    pub fn gather(&self) -> CsrBool {
        let mut pairs: Vec<Pair> = Vec::with_capacity(self.nnz());
        for (j, shard) in self.shards.iter().enumerate() {
            let base = self.offsets[j];
            pairs.extend(shard.read().into_iter().map(|(i, c)| (i + base, c)));
        }
        CsrBool::from_pairs(self.nrows(), self.ncols, &pairs).expect("shard pairs in bounds")
    }

    /// Deep copy, shard by shard.
    pub fn duplicate(&self) -> Result<DistMatrix> {
        let shards = self
            .shards
            .iter()
            .map(Matrix::duplicate)
            .collect::<Result<Vec<_>>>()?;
        Ok(DistMatrix {
            grid: self.grid.clone(),
            offsets: self.offsets.clone(),
            ncols: self.ncols,
            shards,
        })
    }

    /// Re-partition onto new shard boundaries, moving rows between
    /// devices (metered as peer traffic from each shard that loses
    /// rows to another slot).
    pub fn reshard(&self, offsets: Vec<Index>) -> Result<DistMatrix> {
        validate_offsets(&offsets, self.grid.len(), self.nrows())?;
        let mut shards = Vec::with_capacity(self.grid.len());
        for i in 0..self.grid.len() {
            let (lo, hi) = (offsets[i], offsets[i + 1]);
            let mut pairs: Vec<Pair> = Vec::new();
            for (j, shard) in self.shards.iter().enumerate() {
                let (slo, shi) = (self.offsets[j].max(lo), self.offsets[j + 1].min(hi));
                if slo >= shi {
                    continue;
                }
                let piece = shard.submatrix(slo - self.offsets[j], 0, shi - slo, self.ncols)?;
                if piece.is_empty() {
                    continue;
                }
                if j != i {
                    self.grid.device(j).count_d2d(piece.memory_bytes() as u64);
                }
                pairs.extend(piece.read().into_iter().map(|(r, c)| (r + slo - lo, c)));
            }
            shards.push(Matrix::from_pairs(
                self.grid.instance(i),
                hi - lo,
                self.ncols,
                &pairs,
            )?);
        }
        Ok(DistMatrix {
            grid: self.grid.clone(),
            offsets,
            ncols: self.ncols,
            shards,
        })
    }

    fn check_same_grid(&self, other: &DistMatrix) -> Result<()> {
        if !self.grid.same_as(&other.grid) {
            return Err(SpblaError::BackendMismatch);
        }
        Ok(())
    }

    /// Distributed SpGEMM `C = A · B` (round-robin all-gather schedule).
    pub fn mxm(&self, other: &DistMatrix) -> Result<DistMatrix> {
        self.mxm_rounds(other, None)
    }

    /// Distributed masked SpGEMM `C = (A · B) ∧ M`. The mask must be
    /// sharded on the same grid; it is re-aligned to `A`'s partition if
    /// its boundaries differ.
    pub fn mxm_masked(&self, other: &DistMatrix, mask: &DistMatrix) -> Result<DistMatrix> {
        self.mxm_rounds(other, Some((mask, MaskKind::Keep)))
    }

    /// Distributed complement-masked SpGEMM `C = (A · B) ∧ ¬M` — the
    /// semi-naïve fixpoint primitive, distributed.
    pub fn mxm_compmask(&self, other: &DistMatrix, mask: &DistMatrix) -> Result<DistMatrix> {
        self.mxm_rounds(other, Some((mask, MaskKind::Drop)))
    }

    fn mxm_rounds(
        &self,
        other: &DistMatrix,
        mask: Option<(&DistMatrix, MaskKind)>,
    ) -> Result<DistMatrix> {
        self.check_same_grid(other)?;
        if self.ncols != other.nrows() {
            return Err(SpblaError::DimensionMismatch {
                op: "dist mxm",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        // Align the mask to A's row partition so each round can apply
        // the purely local mask shard.
        let aligned_mask;
        let mask = match mask {
            Some((m, kind)) => {
                self.check_same_grid(m)?;
                if m.shape() != (self.nrows(), other.ncols()) {
                    return Err(SpblaError::DimensionMismatch {
                        op: "dist mxm mask",
                        lhs: (self.nrows(), other.ncols()),
                        rhs: m.shape(),
                    });
                }
                if m.offsets == self.offsets {
                    Some((m, kind))
                } else {
                    aligned_mask = m.reshard(self.offsets.clone())?;
                    Some((&aligned_mask, kind))
                }
            }
            None => None,
        };
        let comm = self.grid.comm();
        let mut shards = Vec::with_capacity(self.grid.len());
        for i in 0..self.grid.len() {
            let rows_i = self.offsets[i + 1] - self.offsets[i];
            let a_i = &self.shards[i];
            let mut acc = Matrix::zeros(self.grid.instance(i), rows_i, other.ncols)?;
            for k in 0..self.grid.len() {
                let (blo, bhi) = (other.offsets[k], other.offsets[k + 1]);
                if blo == bhi {
                    continue;
                }
                let a_ik = a_i.submatrix(0, blo, rows_i, bhi - blo)?;
                if a_ik.is_empty() {
                    // No local column hits shard k — skip the fetch.
                    continue;
                }
                // One remote shard resident at a time: `fetched` dies at
                // the end of the round.
                let fetched;
                let b_k = if k == i {
                    &other.shards[k]
                } else {
                    fetched = comm.peer_copy(&other.shards[k], k, i)?;
                    &fetched
                };
                let prod = match mask {
                    None => a_ik.mxm(b_k)?,
                    Some((m, MaskKind::Keep)) => a_ik.mxm_masked(b_k, &m.shards[i])?,
                    Some((m, MaskKind::Drop)) => a_ik.mxm_compmask(b_k, &m.shards[i])?,
                };
                if !prod.is_empty() {
                    acc = acc.ewise_add(&prod)?;
                }
            }
            shards.push(acc);
        }
        Ok(DistMatrix {
            grid: self.grid.clone(),
            offsets: self.offsets.clone(),
            ncols: other.ncols,
            shards,
        })
    }

    /// Fused distributed `acc = C ∨ ((A·B) ∧ ¬C)` with `self` as `C`.
    ///
    /// Rides the same round-robin all-gather schedule as
    /// [`DistMatrix::mxm_compmask`], but each round runs the
    /// single-device *fused* kernel with the shard's **growing**
    /// accumulator as the complement mask: round `k`'s fresh piece is
    /// `(A_ik·B_k) \ (C_i ∪ F_{<k})`, so the pieces are pairwise
    /// disjoint and their union is exactly `(⋁_k A_ik·B_k) ∧ ¬C_i` —
    /// the per-round `ewise_add` fold of the unfused schedule, the
    /// zero-initialised round accumulator, and the end-of-round
    /// `C += fresh` union all disappear into the per-round launch. The
    /// termination signal is the sum of the rounds' fresh-nnz counts;
    /// no materialised intermediate product is ever reduced.
    ///
    /// `a` must share `self`'s partition (it is re-aligned when the
    /// boundaries differ); `b`'s partition drives the round schedule.
    pub fn mxm_accum_compmask(
        &self,
        a: &DistMatrix,
        b: &DistMatrix,
        want_fresh: bool,
    ) -> Result<FusedDistProduct> {
        self.check_same_grid(a)?;
        self.check_same_grid(b)?;
        if a.ncols != b.nrows() {
            return Err(SpblaError::DimensionMismatch {
                op: "dist mxm_accum_compmask",
                lhs: a.shape(),
                rhs: b.shape(),
            });
        }
        if self.shape() != (a.nrows(), b.ncols) {
            return Err(SpblaError::DimensionMismatch {
                op: "dist mxm_accum_compmask acc",
                lhs: (a.nrows(), b.ncols),
                rhs: self.shape(),
            });
        }
        let realigned;
        let a = if self.offsets == a.offsets {
            a
        } else {
            realigned = a.reshard(self.offsets.clone())?;
            &realigned
        };
        let comm = self.grid.comm();
        let mut acc_shards = Vec::with_capacity(self.grid.len());
        let mut fresh_shards = Vec::with_capacity(self.grid.len());
        let mut fresh_nnz = 0usize;
        for i in 0..self.grid.len() {
            let rows_i = self.offsets[i + 1] - self.offsets[i];
            let a_i = &a.shards[i];
            // Growing accumulator for this shard; `None` means still
            // bit-identical to `C_i`, so convergence rounds never copy.
            let mut cur: Option<Matrix> = None;
            let mut pieces: Vec<Matrix> = Vec::new();
            for k in 0..self.grid.len() {
                let (blo, bhi) = (b.offsets[k], b.offsets[k + 1]);
                if blo == bhi {
                    continue;
                }
                let a_ik = a_i.submatrix(0, blo, rows_i, bhi - blo)?;
                if a_ik.is_empty() {
                    // No local column hits shard k — skip the fetch.
                    continue;
                }
                let fetched;
                let b_k = if k == i {
                    &b.shards[k]
                } else {
                    fetched = comm.peer_copy(&b.shards[k], k, i)?;
                    &fetched
                };
                let mask = cur.as_ref().unwrap_or(&self.shards[i]);
                let step = mask.mxm_accum_compmask(&a_ik, b_k, want_fresh)?;
                if step.fresh_nnz > 0 {
                    cur = Some(step.acc);
                    fresh_nnz += step.fresh_nnz;
                    if let Some(f) = step.fresh {
                        pieces.push(f);
                    }
                }
            }
            acc_shards.push(match cur {
                Some(m) => m,
                None => self.shards[i].duplicate()?,
            });
            if want_fresh {
                // Disjoint pieces: the fold is a plain merge, no dedup.
                let mut f = match pieces.pop() {
                    Some(f) => f,
                    None => Matrix::zeros(self.grid.instance(i), rows_i, b.ncols)?,
                };
                for p in &pieces {
                    f = f.ewise_add(p)?;
                }
                fresh_shards.push(f);
            }
        }
        let wrap = |shards: Vec<Matrix>| DistMatrix {
            grid: self.grid.clone(),
            offsets: self.offsets.clone(),
            ncols: b.ncols,
            shards,
        };
        Ok(FusedDistProduct {
            acc: wrap(acc_shards),
            fresh_nnz,
            fresh: want_fresh.then(|| wrap(fresh_shards)),
        })
    }

    fn ewise(&self, other: &DistMatrix, op: &'static str) -> Result<DistMatrix> {
        self.check_same_grid(other)?;
        if self.shape() != other.shape() {
            return Err(SpblaError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        // Align `other` to this partition when the boundaries differ.
        let resharded;
        let other = if self.offsets == other.offsets {
            other
        } else {
            resharded = other.reshard(self.offsets.clone())?;
            &resharded
        };
        let shards = self
            .shards
            .iter()
            .zip(other.shards.iter())
            .map(|(a, b)| match op {
                "dist ewise_add" => a.ewise_add(b),
                _ => a.ewise_mult(b),
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(DistMatrix {
            grid: self.grid.clone(),
            offsets: self.offsets.clone(),
            ncols: self.ncols,
            shards,
        })
    }

    /// Element-wise Boolean sum (set union), purely shard-local once
    /// the partitions are aligned.
    pub fn ewise_add(&self, other: &DistMatrix) -> Result<DistMatrix> {
        self.ewise(other, "dist ewise_add")
    }

    /// Element-wise Boolean product (set intersection).
    pub fn ewise_mult(&self, other: &DistMatrix) -> Result<DistMatrix> {
        self.ewise(other, "dist ewise_mult")
    }

    /// Apply an edge-update batch shard-locally: each device folds the
    /// inserts and deletes that land in its row range into its own
    /// shard (`S' = (S ∪ ins) ∧ ¬del`) and untouched shards are deep
    /// copies — no peer traffic, which is what makes high-frequency
    /// update streams viable on a grid. Pairs use *global* row indices.
    pub fn apply_updates(&self, inserts: &[Pair], deletes: &[Pair]) -> Result<DistMatrix> {
        let oob = |pairs: &[Pair]| {
            pairs
                .iter()
                .find(|&&(r, c)| r >= self.nrows() || c >= self.ncols)
                .copied()
        };
        if let Some((row, col)) = oob(inserts).or_else(|| oob(deletes)) {
            return Err(SpblaError::IndexOutOfBounds {
                row,
                col,
                shape: self.shape(),
            });
        }
        let mut shards = Vec::with_capacity(self.grid.len());
        for i in 0..self.grid.len() {
            let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
            let local = |pairs: &[Pair]| -> Vec<Pair> {
                pairs
                    .iter()
                    .filter(|&&(r, _)| r >= lo && r < hi)
                    .map(|&(r, c)| (r - lo, c))
                    .collect()
            };
            let (ins_i, del_i) = (local(inserts), local(deletes));
            let mut shard = self.shards[i].duplicate()?;
            if !ins_i.is_empty() {
                let add = Matrix::from_pairs(self.grid.instance(i), hi - lo, self.ncols, &ins_i)?;
                shard = shard.ewise_add(&add)?;
            }
            if !del_i.is_empty() {
                let del = Matrix::from_pairs(self.grid.instance(i), hi - lo, self.ncols, &del_i)?;
                shard = shard.ewise_andnot(&del)?;
            }
            shards.push(shard);
        }
        Ok(DistMatrix {
            grid: self.grid.clone(),
            offsets: self.offsets.clone(),
            ncols: self.ncols,
            shards,
        })
    }

    /// Distributed Kronecker product `K = A ⊗ B`. Device `i` all-gathers
    /// `B` once and computes `A_i ⊗ B`, whose rows are the contiguous
    /// global range `offsets[i]·nrows(B) .. offsets[i+1]·nrows(B)` — so
    /// the result is a (generally ragged) block-row distribution with
    /// no post-shuffle.
    pub fn kron(&self, other: &DistMatrix) -> Result<DistMatrix> {
        self.check_same_grid(other)?;
        let nrows = self.nrows() as u64 * other.nrows() as u64;
        let ncols = self.ncols as u64 * other.ncols as u64;
        if nrows > u32::MAX as u64 || ncols > u32::MAX as u64 {
            return Err(SpblaError::InvalidDimension(format!(
                "dist kron result {nrows}x{ncols} overflows the index type"
            )));
        }
        let comm = self.grid.comm();
        let mut shards = Vec::with_capacity(self.grid.len());
        for (i, a_i) in self.shards.iter().enumerate() {
            if a_i.is_empty() {
                // Nothing to expand — skip the all-gather for this slot.
                shards.push(Matrix::zeros(
                    self.grid.instance(i),
                    a_i.nrows() * other.nrows(),
                    self.ncols * other.ncols,
                )?);
                continue;
            }
            let b_full = comm.all_gather(other, i)?;
            shards.push(a_i.kron(&b_full)?);
        }
        let offsets = self.offsets.iter().map(|&o| o * other.nrows()).collect();
        Ok(DistMatrix {
            grid: self.grid.clone(),
            offsets,
            ncols: (ncols) as Index,
            shards,
        })
    }

    /// Global `reduceToColumn`: indices of non-empty rows. Shard-local
    /// reductions concatenate in partition order — no communication.
    pub fn reduce_to_column(&self) -> Result<Vec<Index>> {
        let mut out = Vec::new();
        for (j, shard) in self.shards.iter().enumerate() {
            let base = self.offsets[j];
            out.extend(
                shard
                    .reduce_to_column()?
                    .indices()
                    .iter()
                    .map(|&i| i + base),
            );
        }
        Ok(out)
    }

    /// Global `reduceToRow`: indices of non-empty columns. Each device
    /// reduces its shard to a 1×ncols row, and the rows merge-reduce
    /// onto device 0.
    pub fn reduce_to_row(&self) -> Result<Vec<Index>> {
        let mut partials: Vec<Matrix> = Vec::with_capacity(self.grid.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let cols = shard.reduce_to_row()?;
            let pairs: Vec<Pair> = cols.indices().iter().map(|&j| (0, j)).collect();
            partials.push(Matrix::from_pairs(
                self.grid.instance(i),
                1,
                self.ncols,
                &pairs,
            )?);
        }
        let refs: Vec<(usize, &Matrix)> = partials.iter().enumerate().collect();
        let merged = self.grid.comm().merge_reduce(&refs, 0)?;
        Ok(merged.read().into_iter().map(|(_, j)| j).collect())
    }

    /// Distributed semi-naïve transitive closure: per-shard frontiers
    /// `Δ_i`, one *fused* complement-masked distributed SpGEMM per
    /// round (which all-gathers only the round's delta shards — the
    /// small frontier, never the dense closure). The fused kernel
    /// accumulates fresh facts into `C_i` in the same launch and
    /// returns the termination signal, so no round ever materialises
    /// the intermediate product or re-reduces `nnz`. Bit-identical to
    /// the single-device `closure_delta`.
    pub fn closure_delta(&self) -> Result<DistMatrix> {
        self.check_square("dist closure")?;
        let mut c = self.duplicate()?;
        let mut delta = self.duplicate()?;
        while delta.nnz() > 0 {
            let step = c.mxm_accum_compmask(&c, &delta, true)?;
            if step.fresh_nnz == 0 {
                break;
            }
            c = step.acc;
            delta = step.fresh.expect("fresh requested");
        }
        Ok(c)
    }

    /// Distributed naive squaring closure (`C ← C + C·C` to fixpoint) —
    /// the naive test oracle for [`DistMatrix::closure_delta`]: every
    /// round all-gathers the whole current closure instead of the
    /// frontier.
    pub fn closure_squaring(&self) -> Result<DistMatrix> {
        self.check_square("dist closure")?;
        let mut c = self.duplicate()?;
        loop {
            let before = c.nnz();
            let sq = c.mxm(&c)?;
            c = c.ewise_add(&sq)?;
            if c.nnz() == before {
                return Ok(c);
            }
        }
    }

    fn check_square(&self, op: &'static str) -> Result<()> {
        if self.nrows() != self.ncols {
            return Err(SpblaError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: self.shape(),
            });
        }
        Ok(())
    }
}

fn validate_offsets(offsets: &[Index], parts: usize, nrows: Index) -> Result<()> {
    let ok = offsets.len() == parts + 1
        && offsets.first() == Some(&0)
        && offsets.last() == Some(&nrows)
        && offsets.windows(2).all(|w| w[0] <= w[1]);
    if !ok {
        return Err(SpblaError::InvalidDimension(format!(
            "bad shard offsets {offsets:?} for {parts} devices over {nrows} rows"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spbla_core::Instance;

    fn pseudo_pairs(n: u32, nnz: usize, seed: u64) -> Vec<Pair> {
        let mut s = seed | 1;
        (0..nnz)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                let a = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
                ((a >> 32) as u32 % n, a as u32 % n)
            })
            .collect()
    }

    fn reference(host: &Instance, n: u32, pairs: &[Pair]) -> Matrix {
        Matrix::from_pairs(host, n, n, pairs).unwrap()
    }

    #[test]
    fn shard_roundtrip_balanced_and_ragged() {
        let grid = DeviceGrid::new(3);
        let pairs = pseudo_pairs(10, 30, 1);
        let csr = CsrBool::from_pairs(10, 10, &pairs).unwrap();
        let d = DistMatrix::from_csr(&grid, &csr).unwrap();
        assert_eq!(d.gather(), csr);
        assert_eq!(d.offsets(), &[0, 4, 7, 10]);
        // Ragged: all rows on the middle device.
        let ragged = DistMatrix::from_csr_with_offsets(&grid, &csr, vec![0, 0, 10, 10]).unwrap();
        assert_eq!(ragged.gather(), csr);
        assert_eq!(ragged.shards()[0].nrows(), 0);
        assert_eq!(ragged.nnz(), csr.nnz());
    }

    #[test]
    fn bad_offsets_rejected() {
        let grid = DeviceGrid::new(2);
        let csr = CsrBool::zeros(5, 5);
        for bad in [vec![0, 5], vec![0, 3, 4], vec![0, 4, 3], vec![1, 3, 5]] {
            assert!(DistMatrix::from_csr_with_offsets(&grid, &csr, bad).is_err());
        }
    }

    #[test]
    fn dist_mxm_matches_single_device() {
        let n = 17u32;
        let pa = pseudo_pairs(n, 60, 3);
        let pb = pseudo_pairs(n, 60, 4);
        let host = Instance::cpu();
        let expect = reference(&host, n, &pa)
            .mxm(&reference(&host, n, &pb))
            .unwrap()
            .read();
        for devices in [1, 2, 3, 7] {
            let grid = DeviceGrid::new(devices);
            let a = DistMatrix::from_pairs(&grid, n, n, &pa).unwrap();
            let b = DistMatrix::from_pairs(&grid, n, n, &pb).unwrap();
            let c = a.mxm(&b).unwrap();
            assert_eq!(c.gather().to_pairs(), expect, "{devices} devices");
            if devices > 1 {
                assert!(grid.total_stats().d2d_bytes > 0, "rounds must be metered");
            }
        }
    }

    #[test]
    fn dist_masked_variants_match_single_device() {
        let n = 12u32;
        let pa = pseudo_pairs(n, 50, 7);
        let pb = pseudo_pairs(n, 50, 8);
        let pm = pseudo_pairs(n, 30, 9);
        let host = Instance::cpu();
        let (ra, rb, rm) = (
            reference(&host, n, &pa),
            reference(&host, n, &pb),
            reference(&host, n, &pm),
        );
        let kept = ra.mxm_masked(&rb, &rm).unwrap().read();
        let fresh = ra.mxm_compmask(&rb, &rm).unwrap().read();
        let grid = DeviceGrid::new(3);
        let a = DistMatrix::from_pairs(&grid, n, n, &pa).unwrap();
        let b = DistMatrix::from_pairs(&grid, n, n, &pb).unwrap();
        let m = DistMatrix::from_pairs(&grid, n, n, &pm).unwrap();
        assert_eq!(a.mxm_masked(&b, &m).unwrap().gather().to_pairs(), kept);
        assert_eq!(a.mxm_compmask(&b, &m).unwrap().gather().to_pairs(), fresh);
    }

    #[test]
    fn ewise_aligns_ragged_partitions() {
        let n = 9u32;
        let pa = pseudo_pairs(n, 25, 11);
        let pb = pseudo_pairs(n, 25, 12);
        let host = Instance::cpu();
        let expect = reference(&host, n, &pa)
            .ewise_add(&reference(&host, n, &pb))
            .unwrap()
            .read();
        let grid = DeviceGrid::new(2);
        let a = DistMatrix::from_pairs(&grid, n, n, &pa).unwrap();
        let csr_b = CsrBool::from_pairs(n, n, &pb).unwrap();
        let b = DistMatrix::from_csr_with_offsets(&grid, &csr_b, vec![0, 2, 9]).unwrap();
        assert_ne!(a.offsets(), b.offsets());
        assert_eq!(a.ewise_add(&b).unwrap().gather().to_pairs(), expect);
    }

    #[test]
    fn kron_produces_scaled_ragged_offsets() {
        let grid = DeviceGrid::new(2);
        let pa = [(0u32, 1u32), (2, 0)];
        let pb = [(0u32, 0u32), (1, 1)];
        let a = DistMatrix::from_pairs(&grid, 3, 3, &pa).unwrap();
        let b = DistMatrix::from_pairs(&grid, 2, 2, &pb).unwrap();
        let k = a.kron(&b).unwrap();
        let host = Instance::cpu();
        let ra = Matrix::from_pairs(&host, 3, 3, &pa).unwrap();
        let rb = Matrix::from_pairs(&host, 2, 2, &pb).unwrap();
        let expect = ra.kron(&rb).unwrap().read();
        assert_eq!(k.gather().to_pairs(), expect);
        assert_eq!(k.offsets(), &[0, 4, 6]); // a offsets [0,2,3] × nrows(b)=2
    }

    #[test]
    fn reductions_match_host() {
        let n = 11u32;
        let pairs = pseudo_pairs(n, 30, 21);
        let csr = CsrBool::from_pairs(n, n, &pairs).unwrap();
        let grid = DeviceGrid::new(3);
        let d = DistMatrix::from_csr(&grid, &csr).unwrap();
        assert_eq!(d.reduce_to_column().unwrap(), csr.reduce_to_column());
        assert_eq!(d.reduce_to_row().unwrap(), csr.reduce_to_row());
    }

    #[test]
    fn closure_delta_matches_single_device_and_meters_frontier_only() {
        let n = 20u32;
        let pairs = pseudo_pairs(n, 40, 31);
        let host = Instance::cpu();
        let expect = reference(&host, n, &pairs)
            .transitive_closure()
            .unwrap()
            .read();
        for devices in [1, 2, 4] {
            let grid = DeviceGrid::new(devices);
            let d = DistMatrix::from_pairs(&grid, n, n, &pairs).unwrap();
            let c = d.closure_delta().unwrap();
            assert_eq!(c.gather().to_pairs(), expect, "{devices} devices");
        }
        // The naive distributed schedule pays strictly more comm than
        // the delta schedule on a multi-round instance.
        let chain: Vec<Pair> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g_delta = DeviceGrid::new(4);
        DistMatrix::from_pairs(&g_delta, n, n, &chain)
            .unwrap()
            .closure_delta()
            .unwrap();
        let g_naive = DeviceGrid::new(4);
        DistMatrix::from_pairs(&g_naive, n, n, &chain)
            .unwrap()
            .closure_squaring()
            .unwrap();
        assert!(
            g_naive.total_stats().d2d_bytes > g_delta.total_stats().d2d_bytes,
            "naive {} <= delta {}",
            g_naive.total_stats().d2d_bytes,
            g_delta.total_stats().d2d_bytes
        );
    }

    #[test]
    fn apply_updates_is_shard_local() {
        let n = 16u32;
        let base = pseudo_pairs(n, 40, 51);
        let ins = [(0u32, 15u32), (7, 7), (15, 0)];
        let del: Vec<Pair> = base.iter().take(5).copied().collect();
        let mut expect: std::collections::BTreeSet<Pair> = base.iter().copied().collect();
        expect.extend(ins);
        for d in &del {
            expect.remove(d);
        }
        let expect: Vec<Pair> = expect.into_iter().collect();
        for devices in [1, 2, 4] {
            let grid = DeviceGrid::new(devices);
            let m = DistMatrix::from_pairs(&grid, n, n, &base).unwrap();
            let d2d_before = grid.total_stats().d2d_bytes;
            let updated = m.apply_updates(&ins, &del).unwrap();
            assert_eq!(updated.gather().to_pairs(), expect, "{devices} devices");
            assert_eq!(
                grid.total_stats().d2d_bytes,
                d2d_before,
                "batch application must not move data between devices"
            );
            // The original is untouched (copy-on-write discipline).
            assert_eq!(m.nnz(), CsrBool::from_pairs(n, n, &base).unwrap().nnz());
        }
        // Out-of-bounds pairs are rejected.
        let grid = DeviceGrid::new(2);
        let m = DistMatrix::from_pairs(&grid, n, n, &base).unwrap();
        assert!(matches!(
            m.apply_updates(&[(n, 0)], &[]),
            Err(SpblaError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn apply_updates_empty_batch_is_deep_copy() {
        let n = 16u32;
        let base = pseudo_pairs(n, 40, 52);
        for devices in [1, 2, 4] {
            let grid = DeviceGrid::new(devices);
            let m = DistMatrix::from_pairs(&grid, n, n, &base).unwrap();
            let d2d_before = grid.total_stats().d2d_bytes;
            let updated = m.apply_updates(&[], &[]).unwrap();
            // Same contents, new shards — not aliases of the original.
            assert_eq!(updated.gather().to_pairs(), m.gather().to_pairs());
            assert_eq!(grid.total_stats().d2d_bytes, d2d_before);
            let add = DistMatrix::from_pairs(&grid, n, n, &[(0, 0)]).unwrap();
            let poked = updated.ewise_add(&add).unwrap();
            assert_eq!(m.nnz() + 1, poked.nnz());
            assert_eq!(
                m.gather().to_pairs(),
                CsrBool::from_pairs(n, n, &base).unwrap().to_pairs()
            );
        }
    }

    #[test]
    fn apply_updates_duplicates_and_conflicts() {
        let n = 16u32;
        let base = [(0u32, 1u32), (3, 3), (8, 9)];
        for devices in [1, 2, 4] {
            let grid = DeviceGrid::new(devices);
            let m = DistMatrix::from_pairs(&grid, n, n, &base).unwrap();
            // Duplicate inserts collapse; inserting a present edge is
            // idempotent.
            let dup = m.apply_updates(&[(5, 5), (5, 5), (0, 1)], &[]).unwrap();
            assert_eq!(
                dup.gather().to_pairs(),
                vec![(0, 1), (3, 3), (5, 5), (8, 9)]
            );
            // Insert-then-delete of the same edge within one batch:
            // `S' = (S ∪ ins) ∧ ¬del`, so the delete wins whether or
            // not the edge pre-existed.
            let net = m
                .apply_updates(&[(5, 5), (0, 1)], &[(5, 5), (0, 1)])
                .unwrap();
            assert_eq!(net.gather().to_pairs(), vec![(3, 3), (8, 9)]);
            // Deleting an absent edge is a no-op.
            let noop = m.apply_updates(&[], &[(14, 14)]).unwrap();
            assert_eq!(noop.gather().to_pairs(), base.to_vec());
        }
    }

    #[test]
    fn cross_grid_operands_rejected() {
        let g1 = DeviceGrid::new(2);
        let g2 = DeviceGrid::new(2);
        let a = DistMatrix::from_pairs(&g1, 4, 4, &[(0, 1)]).unwrap();
        let b = DistMatrix::from_pairs(&g2, 4, 4, &[(1, 2)]).unwrap();
        assert!(matches!(a.mxm(&b), Err(SpblaError::BackendMismatch)));
        assert!(matches!(a.ewise_add(&b), Err(SpblaError::BackendMismatch)));
    }
}
