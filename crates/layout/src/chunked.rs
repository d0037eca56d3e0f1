//! The chunked interleaved layout (Figure 8 of the paper).

use crate::traits::{BatchLayout, LayoutKind};
use crate::util::{align_up, WARP_SIZE};
use serde::{Deserialize, Serialize};

/// Interleaving restricted to chunks of `chunk` matrices.
///
/// Matrices are grouped into chunks of `chunk` (a multiple of the warp
/// size). Each chunk occupies a contiguous region of `lda * n * chunk`
/// elements, interleaved internally exactly like
/// [`Interleaved`](crate::Interleaved) with the chunk playing the role
/// of the batch:
///
/// ```text
/// addr(m, i, j) = (m / chunk) * lda * n * chunk     // chunk base
///               + (j * lda + i) * chunk              // element plane
///               + (m % chunk)                        // lane within chunk
/// ```
///
/// Reads stay perfectly coalesced, while the elements of one matrix now
/// live within a contiguous `lda * n * chunk`-element window — for
/// `n = 24, chunk = 64` that is 144 KiB instead of being smeared across the
/// whole 36 MiB batch. The paper finds this spatial locality worth ~2× in
/// sustained bandwidth, and also uses the chunk size as the thread-block
/// size of the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chunked {
    n: usize,
    lda: usize,
    batch: usize,
    padded: usize,
    chunk: usize,
}

impl Chunked {
    /// A chunked layout with `lda == n`; the batch is padded to a multiple
    /// of the chunk size.
    ///
    /// # Panics
    /// If `chunk` is zero or not a multiple of the warp size (32).
    pub fn new(n: usize, batch: usize, chunk: usize) -> Self {
        Self::with_lda(n, n, batch, chunk)
    }

    /// A chunked layout with an explicit leading dimension.
    ///
    /// # Panics
    /// If `n == 0`, `lda < n`, `batch == 0`, or `chunk` is zero or not a
    /// multiple of the warp size (32).
    pub fn with_lda(n: usize, lda: usize, batch: usize, chunk: usize) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        assert!(lda >= n, "leading dimension must be >= n");
        assert!(batch > 0, "batch must be positive");
        assert!(
            chunk > 0 && chunk.is_multiple_of(WARP_SIZE),
            "chunk size must be a positive multiple of the warp size"
        );
        let padded = align_up(batch, chunk);
        Self {
            n,
            lda,
            batch,
            padded,
            chunk,
        }
    }

    /// Number of matrices per chunk.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Number of chunks in the padded batch.
    pub fn num_chunks(&self) -> usize {
        self.padded / self.chunk
    }

    /// Element length of one chunk's contiguous region.
    pub fn chunk_len(&self) -> usize {
        self.lda * self.n * self.chunk
    }
}

impl BatchLayout for Chunked {
    fn n(&self) -> usize {
        self.n
    }

    fn lda(&self) -> usize {
        self.lda
    }

    fn batch(&self) -> usize {
        self.batch
    }

    fn padded_batch(&self) -> usize {
        self.padded
    }

    fn len(&self) -> usize {
        self.num_chunks() * self.chunk_len()
    }

    #[inline]
    fn addr(&self, mat: usize, row: usize, col: usize) -> usize {
        debug_assert!(mat < self.padded && row < self.lda && col < self.n);
        let chunk_idx = mat / self.chunk;
        let lane = mat % self.chunk;
        chunk_idx * self.chunk_len() + (col * self.lda + row) * self.chunk + lane
    }

    fn lane_stride(&self) -> usize {
        1
    }

    fn kind(&self) -> LayoutKind {
        LayoutKind::Chunked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_of_warp_size_matches_paper_stencil() {
        // The paper's load_full walks `dAp += 32` between rows and
        // `dAp += (N - NB) * 32` between columns for chunk 32; our addr()
        // must agree with that pointer arithmetic.
        let n = 8;
        let l = Chunked::new(n, 32, 32);
        let base = l.addr(5, 0, 0); // thread 5's dA
        assert_eq!(base, 5);
        for j in 0..n {
            for i in 0..n {
                assert_eq!(l.addr(5, i, j), base + (j * n + i) * 32);
            }
        }
    }

    #[test]
    fn chunks_are_contiguous_blocks() {
        let l = Chunked::new(4, 256, 64);
        assert_eq!(l.chunk_len(), 16 * 64);
        assert_eq!(l.num_chunks(), 4);
        // First element of chunk 1 starts right after chunk 0's region.
        assert_eq!(l.addr(64, 0, 0), 16 * 64);
        // Last element of chunk 0 is the final lane of the (3,3) plane.
        assert_eq!(l.addr(63, 3, 3), 15 * 64 + 63);
    }

    #[test]
    fn pads_to_chunk_multiple() {
        let l = Chunked::new(3, 100, 64);
        assert_eq!(l.padded_batch(), 128);
        assert_eq!(l.len(), 2 * 9 * 64);
    }

    #[test]
    fn chunk_equal_to_padded_batch_matches_interleaved() {
        use crate::Interleaved;
        let n = 5;
        let batch = 96;
        let c = Chunked::new(n, batch, 96);
        let i = Interleaved::new(n, batch);
        assert_eq!(c.len(), i.len());
        for m in 0..batch {
            for col in 0..n {
                for row in 0..n {
                    assert_eq!(c.addr(m, row, col), i.addr(m, row, col));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the warp size")]
    fn rejects_non_warp_chunk() {
        let _ = Chunked::new(4, 64, 48);
    }
}
