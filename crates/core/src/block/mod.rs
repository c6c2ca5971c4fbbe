//! Adaptive tiled block storage.
//!
//! [`BlockMatrix`] partitions a matrix into 64-row block-rows of 64×64
//! [`Tile`]s and stores each tile in the cheapest of
//! {dense bit-word, CSR, COO} for its population (see [`tile`] for the
//! crossovers). Empty tiles are simply absent, so hypersparse regions
//! cost nothing; saturated regions pay 512 B per 4096 cells — the
//! packed-boolean density the paper's memory claim comes from — while
//! the in-between rides compact `u16` sparse tiles.
//!
//! Every kernel runs strip-wise: a block-row's result is accumulated
//! into a dense 64-row bit-word scratch, then re-tiled. The scratch makes mixed-format operands
//! trivial — any tile ORs into it regardless of format — and guarantees
//! results bit-identical to the flat representations, because Boolean
//! union in a bitmap has one possible answer. Accumulating kernels
//! (the fused fixpoint step, `ewise_add`) re-choose each surviving
//! tile's format with hysteresis ([`TileFormat::rechoose`]), so a
//! closure round that densifies a tile past a crossover converts it —
//! counted in `spbla_block_format_switches_total` — without thrashing
//! at the boundary.
//!
//! [`k2tree`] holds the companion read-mostly archival format the
//! engine catalog demotes pinned-history graph versions to.

pub mod k2tree;
pub mod tile;

use spbla_obs::metrics_global;

use crate::error::{Result, SpblaError};
use crate::format::csr::CsrBool;
use crate::index::{Index, Pair};

pub use k2tree::K2Tree;
pub use tile::{Tile, TileFormat, TILE};

/// One block-row: tiles sorted by tile-column index; empty tiles absent.
type BlockRow = Vec<(u32, Tile)>;

/// A Boolean matrix stored as block-rows of format-adaptive 64×64 tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMatrix {
    nrows: Index,
    ncols: Index,
    /// `⌈ncols / 64⌉` — the strip width in tiles.
    tile_cols: usize,
    rows: Vec<BlockRow>,
    nnz: usize,
}

/// Count of per-tile format conversions triggered by accumulate paths.
const SWITCH_COUNTER: &str = "spbla_block_format_switches_total";

fn strip_words(strip: &[u64], j: usize) -> &[u64; TILE] {
    strip[j * TILE..(j + 1) * TILE]
        .try_into()
        .expect("strip tile is TILE words")
}

fn strip_words_mut(strip: &mut [u64], j: usize) -> &mut [u64; TILE] {
    (&mut strip[j * TILE..(j + 1) * TILE])
        .try_into()
        .expect("strip tile is TILE words")
}

/// Collect a bit-word accumulator into sorted indices.
fn words_to_indices(words: &[u64]) -> Vec<Index> {
    let mut out = Vec::new();
    for (wi, &w) in words.iter().enumerate() {
        let mut bits = w;
        while bits != 0 {
            out.push(wi as Index * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    out
}

impl BlockMatrix {
    /// An empty `nrows × ncols` matrix.
    pub fn zeros(nrows: Index, ncols: Index) -> BlockMatrix {
        BlockMatrix {
            nrows,
            ncols,
            tile_cols: (ncols as usize).div_ceil(TILE),
            rows: vec![Vec::new(); (nrows as usize).div_ceil(TILE)],
            nnz: 0,
        }
    }

    /// Tile a host CSR matrix; every tile gets its exact cheapest format.
    pub fn from_csr(m: &CsrBool) -> BlockMatrix {
        let mut out = BlockMatrix::zeros(m.nrows(), m.ncols());
        let mut strip = vec![0u64; out.tile_cols * TILE];
        for (bi, row) in out.rows.iter_mut().enumerate() {
            strip.fill(0);
            let lo = (bi * TILE) as Index;
            let hi = m.nrows().min(lo + TILE as Index);
            let mut any = false;
            for i in lo..hi {
                for &j in m.row(i) {
                    strip[(j as usize / TILE) * TILE + (i - lo) as usize] |= 1u64 << (j % 64);
                    any = true;
                }
            }
            if !any {
                continue;
            }
            let (tiles, nnz, _) = tiles_from_strip(&strip, out.tile_cols, None);
            *row = tiles;
            out.nnz += nnz;
        }
        out
    }

    /// Build from coordinate pairs (bounds-checked).
    pub fn from_pairs(nrows: Index, ncols: Index, pairs: &[Pair]) -> Result<BlockMatrix> {
        Ok(BlockMatrix::from_csr(&CsrBool::from_pairs(
            nrows, ncols, pairs,
        )?))
    }

    /// Materialise as host CSR.
    pub fn to_csr(&self) -> CsrBool {
        let mut row_ptr = Vec::with_capacity(self.nrows as usize + 1);
        row_ptr.push(0 as Index);
        let mut cols = Vec::with_capacity(self.nnz);
        for i in 0..self.nrows {
            let (bi, r) = (i as usize / TILE, i as usize % TILE);
            for &(j, ref t) in &self.rows[bi] {
                let mut bits = t.row_bits(r);
                while bits != 0 {
                    cols.push(j * TILE as Index + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            row_ptr.push(cols.len() as Index);
        }
        CsrBool::from_raw(self.nrows, self.ncols, row_ptr, cols)
    }

    /// All `true` coordinates, row-major.
    pub fn to_pairs(&self) -> Vec<Pair> {
        self.to_csr().to_pairs()
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// `(nrows, ncols)`.
    pub fn shape(&self) -> (Index, Index) {
        (self.nrows, self.ncols)
    }

    /// Number of `true` cells.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Test one cell.
    pub fn get(&self, i: Index, j: Index) -> bool {
        if i >= self.nrows || j >= self.ncols {
            return false;
        }
        let row = &self.rows[i as usize / TILE];
        match row.binary_search_by_key(&(j / TILE as Index), |e| e.0) {
            Ok(p) => row[p].1.row_bits(i as usize % TILE) & (1u64 << (j % 64)) != 0,
            Err(_) => false,
        }
    }

    /// Actual resident bytes: each tile's payload under its current
    /// format plus per-tile and per-block-row bookkeeping — what the
    /// catalog budgets against.
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<BlockMatrix>();
        for row in &self.rows {
            bytes += std::mem::size_of::<BlockRow>();
            for (_, t) in row {
                // Tile-column key + format discriminant, then payload.
                bytes += 8 + t.bytes();
            }
        }
        bytes
    }

    /// `(dense, csr, coo)` tile counts — the ablation's format census.
    pub fn format_census(&self) -> (usize, usize, usize) {
        let (mut d, mut c, mut o) = (0, 0, 0);
        for row in &self.rows {
            for (_, t) in row {
                match t.format() {
                    TileFormat::Dense => d += 1,
                    TileFormat::Csr => c += 1,
                    TileFormat::Coo => o += 1,
                }
            }
        }
        (d, c, o)
    }

    fn check_mul(&self, b: &BlockMatrix, op: &'static str) -> Result<()> {
        if self.ncols != b.nrows {
            return Err(SpblaError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        Ok(())
    }

    fn check_same_shape(&self, b: &BlockMatrix, op: &'static str) -> Result<()> {
        if self.shape() != b.shape() {
            return Err(SpblaError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        Ok(())
    }

    /// OR block-row `bi` of `self` into `strip` (sized for `self`).
    fn expand_row(&self, bi: usize, strip: &mut [u64]) {
        for &(j, ref t) in &self.rows[bi] {
            t.write_into(strip_words_mut(strip, j as usize));
        }
    }

    /// Accumulate block-row `bi` of `self · b` into `strip` (sized for
    /// `b`'s tile columns): for every A-tile bit `(r, k)`, OR B's row
    /// `k` into scratch row `r` — plain Boolean union, so the result is
    /// bit-identical to any flat kernel's.
    fn product_row(&self, b: &BlockMatrix, bi: usize, strip: &mut [u64]) {
        for &(k, ref a_tile) in &self.rows[bi] {
            let mut aw = [0u64; TILE];
            a_tile.write_into(&mut aw);
            // The A tile's non-empty rows, found once per A tile: the
            // loop over B tiles below visits only these.
            let live = a_tile.rows_mask();
            for &(j, ref b_tile) in &b.rows[k as usize] {
                let mut bw = [0u64; TILE];
                b_tile.write_into(&mut bw);
                let out = strip_words_mut(strip, j as usize);
                let mut rows = live;
                while rows != 0 {
                    let r = rows.trailing_zeros() as usize;
                    rows &= rows - 1;
                    let mut bits = aw[r];
                    let mut acc = out[r];
                    while bits != 0 {
                        acc |= bw[bits.trailing_zeros() as usize];
                        bits &= bits - 1;
                    }
                    out[r] = acc;
                }
            }
        }
    }

    /// `C = A · B`.
    pub fn mxm(&self, b: &BlockMatrix) -> Result<BlockMatrix> {
        self.check_mul(b, "mxm")?;
        let mut out = BlockMatrix::zeros(self.nrows, b.ncols);
        let mut strip = vec![0u64; out.tile_cols * TILE];
        for bi in 0..self.rows.len() {
            if self.rows[bi].is_empty() {
                continue;
            }
            strip.fill(0);
            self.product_row(b, bi, &mut strip);
            let (tiles, nnz, _) = tiles_from_strip(&strip, out.tile_cols, None);
            out.rows[bi] = tiles;
            out.nnz += nnz;
        }
        Ok(out)
    }

    fn mxm_filtered(
        &self,
        b: &BlockMatrix,
        mask: &BlockMatrix,
        keep_present: bool,
    ) -> Result<BlockMatrix> {
        self.check_mul(b, "mxm_masked")?;
        if (self.nrows, b.ncols) != mask.shape() {
            return Err(SpblaError::DimensionMismatch {
                op: "mxm_masked",
                lhs: (self.nrows, b.ncols),
                rhs: mask.shape(),
            });
        }
        let mut out = BlockMatrix::zeros(self.nrows, b.ncols);
        let mut strip = vec![0u64; out.tile_cols * TILE];
        let mut mstrip = vec![0u64; out.tile_cols * TILE];
        for bi in 0..self.rows.len() {
            if self.rows[bi].is_empty() {
                continue;
            }
            if keep_present && mask.rows[bi].is_empty() {
                continue;
            }
            strip.fill(0);
            self.product_row(b, bi, &mut strip);
            mstrip.fill(0);
            mask.expand_row(bi, &mut mstrip);
            for (s, &m) in strip.iter_mut().zip(mstrip.iter()) {
                *s &= if keep_present { m } else { !m };
            }
            let (tiles, nnz, _) = tiles_from_strip(&strip, out.tile_cols, None);
            out.rows[bi] = tiles;
            out.nnz += nnz;
        }
        Ok(out)
    }

    /// `C = (A · B) ∧ M`.
    pub fn mxm_masked(&self, b: &BlockMatrix, mask: &BlockMatrix) -> Result<BlockMatrix> {
        self.mxm_filtered(b, mask, true)
    }

    /// `C = (A · B) ∧ ¬M`.
    pub fn mxm_compmask(&self, b: &BlockMatrix, mask: &BlockMatrix) -> Result<BlockMatrix> {
        self.mxm_filtered(b, mask, false)
    }

    /// Fused semi-naïve step over the accumulator `self = C`:
    /// `fresh = (a · b) ∧ ¬C`, `acc = C ∪ fresh`, plus the fresh count.
    /// This is the densify path: surviving accumulator tiles re-choose
    /// their format with hysteresis, fresh-delta tiles pick exact.
    pub fn mxm_accum_compmask(
        &self,
        a: &BlockMatrix,
        b: &BlockMatrix,
        want_fresh: bool,
    ) -> Result<(BlockMatrix, usize, Option<BlockMatrix>)> {
        a.check_mul(b, "mxm_accum_compmask")?;
        if (a.nrows, b.ncols) != self.shape() {
            return Err(SpblaError::DimensionMismatch {
                op: "mxm_accum_compmask",
                lhs: (a.nrows, b.ncols),
                rhs: self.shape(),
            });
        }
        let mut acc = BlockMatrix::zeros(self.nrows, self.ncols);
        let mut fresh = want_fresh.then(|| BlockMatrix::zeros(self.nrows, self.ncols));
        let mut fresh_nnz = 0usize;
        let mut switches = 0usize;
        let mut pstrip = vec![0u64; self.tile_cols * TILE];
        let mut cstrip = vec![0u64; self.tile_cols * TILE];
        for bi in 0..self.rows.len() {
            pstrip.fill(0);
            a.product_row(b, bi, &mut pstrip);
            cstrip.fill(0);
            self.expand_row(bi, &mut cstrip);
            let mut row_fresh = 0usize;
            for (p, &c) in pstrip.iter_mut().zip(cstrip.iter()) {
                *p &= !c; // pstrip becomes the fresh strip
                row_fresh += p.count_ones() as usize;
            }
            if let Some(f) = fresh.as_mut() {
                if row_fresh > 0 {
                    let (tiles, nnz, _) = tiles_from_strip(&pstrip, self.tile_cols, None);
                    f.rows[bi] = tiles;
                    f.nnz += nnz;
                }
            }
            fresh_nnz += row_fresh;
            if row_fresh == 0 {
                // Nothing new: the accumulator row carries over as-is,
                // formats untouched (hysteresis degenerate case).
                acc.rows[bi] = self.rows[bi].clone();
                acc.nnz += self.rows[bi].iter().map(|(_, t)| t.nnz()).sum::<usize>();
                continue;
            }
            for (p, &c) in pstrip.iter_mut().zip(cstrip.iter()) {
                *p |= c; // now the acc strip
            }
            let (tiles, nnz, sw) = tiles_from_strip(&pstrip, self.tile_cols, Some(&self.rows[bi]));
            acc.rows[bi] = tiles;
            acc.nnz += nnz;
            switches += sw;
        }
        if switches > 0 {
            metrics_global()
                .counter(SWITCH_COUNTER)
                .inc(switches as u64);
        }
        Ok((acc, fresh_nnz, fresh))
    }

    /// `C = A + B` (set union). Tiles that existed in `self` re-choose
    /// with hysteresis; tiles new to the union pick exact.
    pub fn ewise_add(&self, b: &BlockMatrix) -> Result<BlockMatrix> {
        self.check_same_shape(b, "ewise_add")?;
        let mut out = BlockMatrix::zeros(self.nrows, self.ncols);
        let mut strip = vec![0u64; self.tile_cols * TILE];
        let mut switches = 0usize;
        for bi in 0..self.rows.len() {
            if self.rows[bi].is_empty() && b.rows[bi].is_empty() {
                continue;
            }
            strip.fill(0);
            self.expand_row(bi, &mut strip);
            b.expand_row(bi, &mut strip);
            let (tiles, nnz, sw) = tiles_from_strip(&strip, self.tile_cols, Some(&self.rows[bi]));
            out.rows[bi] = tiles;
            out.nnz += nnz;
            switches += sw;
        }
        if switches > 0 {
            metrics_global()
                .counter(SWITCH_COUNTER)
                .inc(switches as u64);
        }
        Ok(out)
    }

    /// `C = A ∧ B` (set intersection): only tiles present on both sides
    /// can survive, so this walks the sorted tile lists pairwise.
    pub fn ewise_mult(&self, b: &BlockMatrix) -> Result<BlockMatrix> {
        self.check_same_shape(b, "ewise_mult")?;
        let mut out = BlockMatrix::zeros(self.nrows, self.ncols);
        for bi in 0..self.rows.len() {
            let (ra, rb) = (&self.rows[bi], &b.rows[bi]);
            let (mut x, mut y) = (0usize, 0usize);
            while x < ra.len() && y < rb.len() {
                match ra[x].0.cmp(&rb[y].0) {
                    std::cmp::Ordering::Less => x += 1,
                    std::cmp::Ordering::Greater => y += 1,
                    std::cmp::Ordering::Equal => {
                        let mut w = [0u64; TILE];
                        ra[x].1.write_into(&mut w);
                        let mut wb = [0u64; TILE];
                        rb[y].1.write_into(&mut wb);
                        for (a, &bw) in w.iter_mut().zip(wb.iter()) {
                            *a &= bw;
                        }
                        if let Some((t, n)) = Tile::from_words(&w) {
                            out.rows[bi].push((ra[x].0, t));
                            out.nnz += n;
                        }
                        x += 1;
                        y += 1;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Frontier push `out = ⋃_{i ∈ set} row(i)`; `set` sorted ascending.
    pub fn vxm(&self, set: &[Index]) -> Vec<Index> {
        let mut acc = vec![0u64; self.tile_cols];
        for &i in set {
            let bi = i as usize / TILE;
            if bi >= self.rows.len() {
                continue;
            }
            let r = i as usize % TILE;
            for &(j, ref t) in &self.rows[bi] {
                acc[j as usize] |= t.row_bits(r);
            }
        }
        words_to_indices(&acc)
    }

    /// Frontier pull: same result as [`BlockMatrix::vxm`] from a dense
    /// bit-word frontier.
    pub fn vxm_pull(&self, frontier_words: &[u64]) -> Vec<Index> {
        let mut acc = vec![0u64; self.tile_cols];
        for (wi, &w) in frontier_words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let i = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bi = i / TILE;
                if bi >= self.rows.len() {
                    continue;
                }
                for &(j, ref t) in &self.rows[bi] {
                    acc[j as usize] |= t.row_bits(i % TILE);
                }
            }
        }
        words_to_indices(&acc)
    }

    /// `out[i] = ⋁_j M[i,j] ∧ x[j]` — pull-direction matrix × vector.
    pub fn mxv_indices(&self, xs: &[Index]) -> Vec<Index> {
        let mut mask = vec![0u64; self.tile_cols];
        for &j in xs {
            mask[j as usize / TILE] |= 1u64 << (j % 64);
        }
        let mut out = Vec::new();
        for (bi, row) in self.rows.iter().enumerate() {
            let mut presence = 0u64;
            for &(j, ref t) in row {
                let m = mask[j as usize];
                if m == 0 {
                    continue;
                }
                for r in 0..TILE {
                    if presence & (1u64 << r) == 0 && t.row_bits(r) & m != 0 {
                        presence |= 1u64 << r;
                    }
                }
            }
            let mut bits = presence;
            while bits != 0 {
                out.push((bi * TILE) as Index + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        out
    }

    /// Indices of non-empty rows.
    pub fn reduce_to_column(&self) -> Vec<Index> {
        let mut out = Vec::new();
        for (bi, row) in self.rows.iter().enumerate() {
            let mut presence = 0u64;
            for (_, t) in row {
                presence |= t.rows_mask();
            }
            let mut bits = presence;
            while bits != 0 {
                out.push((bi * TILE) as Index + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        out
    }

    /// Indices of non-empty columns.
    pub fn reduce_to_row(&self) -> Vec<Index> {
        let mut acc = vec![0u64; self.tile_cols];
        for row in &self.rows {
            for &(j, ref t) in row {
                acc[j as usize] |= t.cols_mask();
            }
        }
        words_to_indices(&acc)
    }

    /// Transpose `Mᵀ` (host roundtrip — a structural op outside the
    /// fixpoint hot path).
    pub fn transpose(&self) -> BlockMatrix {
        BlockMatrix::from_csr(&self.to_csr().transpose())
    }

    /// Kronecker product `K = A ⊗ B` (host roundtrip).
    pub fn kron(&self, b: &BlockMatrix) -> Result<BlockMatrix> {
        Ok(BlockMatrix::from_csr(&self.to_csr().kron(&b.to_csr())?))
    }

    /// Extract `M[i0 .. i0+nrows, j0 .. j0+ncols]` (host roundtrip).
    pub fn submatrix(
        &self,
        i0: Index,
        j0: Index,
        nrows: Index,
        ncols: Index,
    ) -> Result<BlockMatrix> {
        Ok(BlockMatrix::from_csr(
            &self.to_csr().submatrix(i0, j0, nrows, ncols)?,
        ))
    }
}

/// Re-tile a dense strip. `prev`, when given, is the block-row this
/// strip replaces: tiles that existed there re-choose format through
/// the hysteresis rule, and the returned third value counts how many
/// actually converted. Tiles with no predecessor pick their exact
/// cheapest format.
fn tiles_from_strip(
    strip: &[u64],
    tile_cols: usize,
    prev: Option<&BlockRow>,
) -> (BlockRow, usize, usize) {
    let mut tiles = Vec::new();
    let mut nnz = 0usize;
    let mut switches = 0usize;
    let mut prev_at = 0usize;
    for j in 0..tile_cols {
        let words = strip_words(strip, j);
        let prev_format = prev.and_then(|p| {
            while prev_at < p.len() && p[prev_at].0 < j as u32 {
                prev_at += 1;
            }
            (prev_at < p.len() && p[prev_at].0 == j as u32).then(|| p[prev_at].1.format())
        });
        match prev_format {
            Some(f) => {
                if let Some((t, n, switched)) = Tile::from_words_rechoosing(words, f) {
                    tiles.push((j as u32, t));
                    nnz += n;
                    switches += usize::from(switched);
                }
            }
            None => {
                if let Some((t, n)) = Tile::from_words(words) {
                    tiles.push((j as u32, t));
                    nnz += n;
                }
            }
        }
    }
    (tiles, nnz, switches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_pairs(n: u32, nnz: usize, seed: u64) -> Vec<Pair> {
        let mut s = seed | 1;
        let mut out = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            out.push(((s >> 32) as u32 % n, s as u32 % n));
        }
        out
    }

    fn csr(n: u32, nnz: usize, seed: u64) -> CsrBool {
        CsrBool::from_pairs(n, n, &pseudo_pairs(n, nnz, seed)).unwrap()
    }

    #[test]
    fn roundtrip_and_get() {
        for (n, nnz) in [(5u32, 8usize), (64, 200), (130, 1000), (200, 12_000)] {
            let m = csr(n, nnz, n as u64);
            let b = BlockMatrix::from_csr(&m);
            assert_eq!(b.nnz(), m.nnz());
            assert_eq!(b.to_csr(), m);
            for (i, j) in m.iter().take(50) {
                assert!(b.get(i, j));
            }
            assert!(!b.get(n, 0) && !b.get(0, n));
        }
    }

    #[test]
    fn mixed_formats_appear_and_account_bytes() {
        // Dense top-left corner + sparse tail: all three formats.
        let n = 256u32;
        let mut pairs = Vec::new();
        for i in 0..64u32 {
            for j in 0..40u32 {
                pairs.push((i, j));
            }
        }
        pairs.extend(pseudo_pairs(n, 300, 9));
        let m = CsrBool::from_pairs(n, n, &pairs).unwrap();
        let b = BlockMatrix::from_csr(&m);
        let (d, c, o) = b.format_census();
        assert!(d >= 1, "dense corner tile expected, census {:?}", (d, c, o));
        assert!(o >= 1, "sparse COO tiles expected, census {:?}", (d, c, o));
        assert_eq!(b.to_csr(), m);
        // Dense-corner tiles cost 512 B where CSR would pay 4 B/nnz.
        assert!(b.memory_bytes() < m.memory_bytes());
    }

    #[test]
    fn kernels_match_csr_reference() {
        let (a, b, m) = (csr(150, 900, 1), csr(150, 900, 2), csr(150, 400, 3));
        let (ba, bb, bm) = (
            BlockMatrix::from_csr(&a),
            BlockMatrix::from_csr(&b),
            BlockMatrix::from_csr(&m),
        );
        assert_eq!(ba.mxm(&bb).unwrap().to_csr(), a.mxm(&b).unwrap());
        assert_eq!(
            ba.mxm_masked(&bb, &bm).unwrap().to_csr(),
            a.mxm_masked(&b, &m).unwrap()
        );
        assert_eq!(
            ba.mxm_compmask(&bb, &bm).unwrap().to_csr(),
            a.mxm_compmask(&b, &m).unwrap()
        );
        assert_eq!(
            ba.ewise_add(&bb).unwrap().to_csr(),
            a.ewise_add(&b).unwrap()
        );
        assert_eq!(
            ba.ewise_mult(&bb).unwrap().to_csr(),
            a.ewise_mult(&b).unwrap()
        );
        assert_eq!(ba.transpose().to_csr(), a.transpose());
        assert_eq!(
            ba.submatrix(3, 7, 100, 90).unwrap().to_csr(),
            a.submatrix(3, 7, 100, 90).unwrap()
        );
        let small = csr(12, 30, 4);
        let bsmall = BlockMatrix::from_csr(&small);
        assert_eq!(ba.kron(&bsmall).unwrap().to_csr(), a.kron(&small).unwrap());
        assert_eq!(ba.reduce_to_column(), a.reduce_to_column());
        assert_eq!(ba.reduce_to_row(), a.reduce_to_row());
        let set: Vec<Index> = vec![0, 3, 64, 100];
        assert_eq!(ba.vxm(&set), a.vxm(&set));
        let mut fw = vec![0u64; 150usize.div_ceil(64)];
        for &i in &set {
            fw[i as usize / 64] |= 1u64 << (i % 64);
        }
        assert_eq!(ba.vxm_pull(&fw), a.vxm(&set));
    }

    #[test]
    fn fused_accum_matches_and_counts_fresh() {
        let (c, a, b) = (csr(120, 400, 5), csr(120, 600, 6), csr(120, 600, 7));
        let (bc, ba, bb) = (
            BlockMatrix::from_csr(&c),
            BlockMatrix::from_csr(&a),
            BlockMatrix::from_csr(&b),
        );
        let (acc_ref, fresh_ref, fresh_m_ref) = c.mxm_accum_compmask(&a, &b, true).unwrap();
        let (acc, fresh_nnz, fresh) = bc.mxm_accum_compmask(&ba, &bb, true).unwrap();
        assert_eq!(acc.to_csr(), acc_ref);
        assert_eq!(fresh_nnz, fresh_ref);
        assert_eq!(fresh.unwrap().to_csr(), fresh_m_ref.unwrap());
        assert_eq!(acc.nnz(), c.nnz() + fresh_nnz);
        // want_fresh = false skips the delta.
        let (_, n2, none) = bc.mxm_accum_compmask(&ba, &bb, false).unwrap();
        assert_eq!(n2, fresh_ref);
        assert!(none.is_none());
    }

    #[test]
    fn densifying_fixpoint_switches_formats() {
        // A cycle's closure saturates: every tile ends dense. Run the
        // semi-naïve fixpoint exactly as transitive_closure does.
        let n = 128u32;
        let ring: Vec<Pair> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = CsrBool::from_pairs(n, n, &ring).unwrap();
        let mut acc = BlockMatrix::from_csr(&g);
        let (d0, _, o0) = acc.format_census();
        assert_eq!(d0, 0);
        assert!(o0 > 0, "ring starts as sparse COO tiles");
        let mut delta = acc.clone();
        loop {
            let (next, fresh_nnz, fresh) = acc.mxm_accum_compmask(&acc, &delta, true).unwrap();
            if fresh_nnz == 0 {
                break;
            }
            acc = next;
            delta = fresh.unwrap();
        }
        assert_eq!(acc.nnz(), (n * n) as usize);
        let (d, c, o) = acc.format_census();
        assert_eq!((c, o), (0, 0), "saturated closure must be all-dense");
        assert_eq!(d, 4);
        // And it matches the flat reference closure bit-for-bit.
        let mut racc = g.clone();
        let mut rdelta = g;
        loop {
            let (next, fresh_nnz, fresh) = racc.mxm_accum_compmask(&racc, &rdelta, true).unwrap();
            if fresh_nnz == 0 {
                break;
            }
            racc = next;
            rdelta = fresh.unwrap();
        }
        assert_eq!(acc.to_csr(), racc);
    }

    #[test]
    fn mxv_matches_reference() {
        let a = csr(100, 500, 11);
        let ba = BlockMatrix::from_csr(&a);
        let xs: Vec<Index> = vec![1, 5, 64, 99];
        let expect: Vec<Index> = (0..100)
            .filter(|&i| a.row(i).iter().any(|j| xs.contains(j)))
            .collect();
        assert_eq!(ba.mxv_indices(&xs), expect);
    }

    #[test]
    fn dimension_mismatches_are_typed() {
        let a = BlockMatrix::from_csr(&csr(10, 20, 1));
        let b = BlockMatrix::zeros(11, 11);
        assert!(matches!(
            a.mxm(&b),
            Err(SpblaError::DimensionMismatch { op: "mxm", .. })
        ));
        assert!(a.ewise_add(&b).is_err());
        assert!(a.ewise_mult(&b).is_err());
        assert!(a.mxm_accum_compmask(&b, &b, false).is_err());
    }

    #[test]
    fn empty_and_rectangular() {
        let z = BlockMatrix::zeros(0, 0);
        assert_eq!(z.nnz(), 0);
        let r = BlockMatrix::from_pairs(3, 200, &[(0, 0), (2, 199)]).unwrap();
        assert_eq!(r.to_pairs(), vec![(0, 0), (2, 199)]);
        let t = r.transpose();
        assert_eq!(t.shape(), (200, 3));
        assert_eq!(t.to_pairs(), vec![(0, 0), (199, 2)]);
        let tall = BlockMatrix::from_pairs(200, 3, &[(199, 1)]).unwrap();
        let prod = r.mxm(&tall).unwrap();
        assert_eq!(prod.to_pairs(), vec![(2, 1)]);
    }
}
