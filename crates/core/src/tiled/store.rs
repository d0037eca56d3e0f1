//! The tiled matrix store: one large symmetric matrix packed as a batch of
//! lower-triangle tiles.
//!
//! A matrix of dimension `n` tiled by `nb` has `nt = ⌈n/nb⌉` tile rows and
//! `nt·(nt+1)/2` lower-triangle tiles `(i, j)` with `j ≤ i`. Each tile is a
//! contiguous `nb × nb` column-major slot — exactly one matrix of a
//! [`Canonical`] batch layout of dimension `nb` — so the whole store is
//! allocated 128-byte-aligned through [`alloc_batch`] and addressed through
//! the same [`BatchLayout`](ibcf_layout::BatchLayout) machinery as every other batch in the
//! workspace. Ragged edge tiles (`n % nb != 0`) occupy the leading
//! `di × dj` sub-block of their slot with tile stride `nb`.
//!
//! Packing tiles contiguously (rather than interleaving their elements
//! across tiles) is deliberate: the coalescing argument for interleaving
//! is a *warp reading one element of 32 matrices*; a task-graph leaf is
//! *one core reading all of one tile*, and there contiguity — whole cache
//! lines per tile column, SIMD-loadable stride-1 columns — is what the
//! [`colvec`](crate::tile) leaves need. The batched and tiled regimes want
//! opposite layouts, which is the crossover the experiments measure.

use crate::scalar::Real;
use ibcf_layout::{alloc_batch, AlignedVec, Canonical};

/// A symmetric matrix packed as 128-byte-aligned lower-triangle tiles.
pub struct TileStore<T> {
    n: usize,
    nb: usize,
    nt: usize,
    /// Element offset between consecutive tile slots (`nb·nb`).
    tile_stride: usize,
    data: AlignedVec<T>,
}

impl<T: Real> TileStore<T> {
    /// An all-zero store for an `n × n` matrix tiled by `nb`.
    ///
    /// # Panics
    /// If `n == 0` or `nb == 0`.
    pub fn new(n: usize, nb: usize) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        assert!(nb > 0, "tile size must be positive");
        let nt = n.div_ceil(nb);
        let ntiles = nt * (nt + 1) / 2;
        let layout = Canonical::new(nb, ntiles);
        let data = alloc_batch(&layout);
        TileStore {
            n,
            nb,
            nt,
            tile_stride: layout.stride(),
            data,
        }
    }

    /// Packs the lower triangle of a column-major `n × n` matrix (leading
    /// dimension `lda`) into tiles. Strictly-upper elements are ignored.
    pub fn pack(n: usize, nb: usize, a: &[T], lda: usize) -> Self {
        assert!(lda >= n, "leading dimension must be >= n");
        let mut store = Self::new(n, nb);
        let nt = store.nt;
        let ts = store.tile_stride;
        for i in 0..nt {
            let di = store.dim(i);
            for j in 0..=i {
                let dj = store.dim(j);
                let off = store.offset(i, j);
                let tile = &mut store.data[off..off + ts];
                for c in 0..dj {
                    let gc = j * nb + c;
                    // Diagonal tiles carry only their lower triangle.
                    let r0 = if i == j { c } else { 0 };
                    for r in r0..di {
                        tile[r + c * nb] = a[(i * nb + r) + gc * lda];
                    }
                }
            }
        }
        store
    }

    /// Scatters the lower triangle back into a column-major `n × n` buffer
    /// with leading dimension `lda`. Strictly-upper elements of `a` are
    /// left untouched (like `potrf_unblocked`).
    pub fn unpack_into(&self, a: &mut [T], lda: usize) {
        assert!(lda >= self.n, "leading dimension must be >= n");
        for i in 0..self.nt {
            let di = self.dim(i);
            for j in 0..=i {
                let dj = self.dim(j);
                let off = self.offset(i, j);
                let tile = &self.data[off..off + self.tile_stride];
                for c in 0..dj {
                    let gc = j * self.nb + c;
                    let r0 = if i == j { c } else { 0 };
                    for r in r0..di {
                        a[(i * self.nb + r) + gc * lda] = tile[r + c * self.nb];
                    }
                }
            }
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile edge.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Number of tile rows (`⌈n/nb⌉`).
    pub fn num_tile_rows(&self) -> usize {
        self.nt
    }

    /// Edge of tile block `b` (ragged last block is smaller).
    #[inline]
    pub fn dim(&self, b: usize) -> usize {
        self.nb.min(self.n - b * self.nb)
    }

    /// Element offset of tile `(i, j)`, `j ≤ i`, in the packed buffer.
    #[inline]
    pub fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(j <= i && i < self.nt);
        (i * (i + 1) / 2 + j) * self.tile_stride
    }

    /// Elements per tile slot (`nb·nb`).
    #[inline]
    pub fn tile_len(&self) -> usize {
        self.tile_stride
    }

    /// The tile `(i, j)` as an `nb × nb` column-major slice.
    pub fn tile(&self, i: usize, j: usize) -> &[T] {
        let off = self.offset(i, j);
        &self.data[off..off + self.tile_stride]
    }

    /// The tile `(i, j)` as a mutable `nb × nb` column-major slice.
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut [T] {
        let off = self.offset(i, j);
        &mut self.data[off..off + self.tile_stride]
    }

    /// The whole packed buffer (tile slots in row-major `(i, j ≤ i)`
    /// order), mutable — the executor wraps this in a
    /// [`SyncSlice`](crate::sync_slice::SyncSlice) for disjoint tile
    /// writes.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibcf_layout::BUFFER_ALIGN;

    #[test]
    fn pack_unpack_round_trips_lower_triangle() {
        for (n, nb) in [(4usize, 2usize), (5, 2), (16, 8), (17, 8), (9, 16)] {
            let a: Vec<f64> = (0..n * n).map(|x| x as f64 + 0.5).collect();
            let store = TileStore::pack(n, nb, &a, n);
            let mut out = vec![-1.0f64; n * n];
            store.unpack_into(&mut out, n);
            for c in 0..n {
                for r in 0..n {
                    if r >= c {
                        assert_eq!(out[r + c * n], a[r + c * n], "({r},{c})");
                    } else {
                        assert_eq!(out[r + c * n], -1.0, "upper ({r},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn base_is_transaction_aligned() {
        let store = TileStore::<f32>::new(64, 16);
        let addr = store.tile(0, 0).as_ptr() as usize;
        assert_eq!(addr % BUFFER_ALIGN, 0);
    }

    #[test]
    fn tile_offsets_are_disjoint_slots() {
        let store = TileStore::<f32>::new(48, 16);
        let nt = store.num_tile_rows();
        let mut seen = std::collections::HashSet::new();
        for i in 0..nt {
            for j in 0..=i {
                assert!(seen.insert(store.offset(i, j)));
                assert_eq!(store.offset(i, j) % store.tile_len(), 0);
            }
        }
        assert_eq!(seen.len(), nt * (nt + 1) / 2);
    }

    #[test]
    fn ragged_dims() {
        let store = TileStore::<f32>::new(37, 16);
        assert_eq!(store.num_tile_rows(), 3);
        assert_eq!(store.dim(0), 16);
        assert_eq!(store.dim(2), 5);
    }
}
