//! GEMM shapes and tiled-grid decomposition (Section 2.5, Figure 5).
//!
//! Everything T3 does hangs off one structural property of library
//! GEMMs: each workgroup (WG) produces one complete output tile, WGs
//! execute in *stages* of however many fit on the CUs, and slicing the
//! GEMM in the K (dot-product) dimension for tensor parallelism leaves
//! the output size, WG count, and stage count unchanged — only the
//! per-WG compute shrinks. [`GemmGrid`] encodes that decomposition and
//! the output address layout; both the timing engine and the fused T3
//! engine consume it.

use t3_sim::config::GpuConfig;
use t3_sim::Bytes;

/// Dimensions and element size of one GEMM: `C[M,N] = A[M,K] x B[K,N]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of the output (tokens for Transformer layers).
    pub m: u64,
    /// Columns of the output.
    pub n: u64,
    /// The dot-product dimension (sliced by tensor parallelism).
    pub k: u64,
    /// Bytes per element (2 for the paper's FP16 runs).
    pub elem_bytes: u64,
    /// Whether the inputs are transposed in memory (forward-pass GEMMs
    /// in MLPerf BERT); modelled as slightly less efficient reads.
    pub transposed: bool,
}

impl GemmShape {
    /// Creates a non-transposed FP16 GEMM shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(m: u64, n: u64, k: u64) -> Self {
        assert!(m > 0 && n > 0 && k > 0, "GEMM dimensions must be positive");
        GemmShape {
            m,
            n,
            k,
            elem_bytes: 2,
            transposed: false,
        }
    }

    /// Marks the inputs as transposed.
    pub fn with_transposed(mut self, transposed: bool) -> Self {
        self.transposed = transposed;
        self
    }

    /// Tensor-parallel slicing in the K dimension (Figure 5): K shrinks
    /// `tp`-fold (rounded up), output unchanged, so the result needs an
    /// all-reduce.
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero or exceeds K.
    pub fn tp_sliced(mut self, tp: u64) -> Self {
        assert!(tp > 0, "TP degree must be positive");
        assert!(tp <= self.k, "cannot slice K={} {tp} ways", self.k);
        self.k = self.k.div_ceil(tp);
        self
    }

    /// Multiply-accumulate FLOPs (2·M·N·K).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Size of the A operand in bytes.
    pub fn a_bytes(&self) -> Bytes {
        self.m * self.k * self.elem_bytes
    }

    /// Size of the B operand in bytes.
    pub fn b_bytes(&self) -> Bytes {
        self.k * self.n * self.elem_bytes
    }

    /// Size of the output in bytes.
    pub fn output_bytes(&self) -> Bytes {
        self.m * self.n * self.elem_bytes
    }
}

/// One workgroup's output tile: grid position and actual extent
/// (edge tiles are clipped to the output bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WgTile {
    /// Tile-row index in the grid.
    pub row: u64,
    /// Tile-column index in the grid.
    pub col: u64,
    /// Rows of output this WG produces.
    pub height: u64,
    /// Columns of output this WG produces.
    pub width: u64,
}

/// The tiled execution grid of one GEMM on one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmGrid {
    shape: GemmShape,
    tile: u64,
    wfs_per_wg: u32,
    concurrent_wgs: u64,
    tiles_m: u64,
    tiles_n: u64,
}

impl GemmGrid {
    /// Builds the grid for `shape` on the GPU described by `cfg`.
    pub fn new(cfg: &GpuConfig, shape: GemmShape) -> Self {
        let tile = cfg.tile_dim as u64;
        GemmGrid {
            shape,
            tile,
            wfs_per_wg: cfg.wfs_per_wg,
            concurrent_wgs: cfg.concurrent_wgs() as u64,
            tiles_m: shape.m.div_ceil(tile),
            tiles_n: shape.n.div_ceil(tile),
        }
    }

    /// The GEMM's shape.
    pub fn shape(&self) -> &GemmShape {
        &self.shape
    }

    /// Output-tile edge length in elements.
    pub fn tile_dim(&self) -> u64 {
        self.tile
    }

    /// Total workgroups in the grid.
    pub fn num_wgs(&self) -> u64 {
        self.tiles_m * self.tiles_n
    }

    /// Wavefronts per workgroup.
    pub fn wfs_per_wg(&self) -> u32 {
        self.wfs_per_wg
    }

    /// Total wavefronts in the grid.
    pub fn num_wfs(&self) -> u64 {
        self.num_wgs() * self.wfs_per_wg as u64
    }

    /// Workgroups that execute concurrently (one stage's width).
    pub fn concurrent_wgs(&self) -> u64 {
        self.concurrent_wgs
    }

    /// Number of execution stages (Section 2.5).
    pub fn num_stages(&self) -> u64 {
        self.num_wgs().div_ceil(self.concurrent_wgs)
    }

    /// Workgroup-id range `[start, end)` executing in `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= num_stages()`.
    pub fn stage_wgs(&self, stage: u64) -> (u64, u64) {
        assert!(stage < self.num_stages(), "stage out of range");
        let start = stage * self.concurrent_wgs;
        let end = (start + self.concurrent_wgs).min(self.num_wgs());
        (start, end)
    }

    /// The output tile of workgroup `wg` (row-major tile order, as
    /// BLAS kernels schedule).
    ///
    /// # Panics
    ///
    /// Panics if `wg >= num_wgs()`.
    pub fn wg_tile(&self, wg: u64) -> WgTile {
        assert!(wg < self.num_wgs(), "wg out of range");
        let row = wg / self.tiles_n;
        let col = wg % self.tiles_n;
        WgTile {
            row,
            col,
            height: (self.shape.m - row * self.tile).min(self.tile),
            width: (self.shape.n - col * self.tile).min(self.tile),
        }
    }

    /// Output bytes produced by workgroup `wg`.
    pub fn wg_output_bytes(&self, wg: u64) -> Bytes {
        let t = self.wg_tile(wg);
        t.height * t.width * self.shape.elem_bytes
    }

    /// Output bytes produced by the WG range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start` or `end` exceeds `num_wgs()`.
    pub fn wg_range_output_bytes(&self, start: u64, end: u64) -> Bytes {
        self.wg_output_offset(end)
            .saturating_sub(self.wg_output_offset(start))
    }

    /// Output bytes of every WG before `wg`, in closed form: the tile
    /// rows above are full height and the tiles to its left are full
    /// width. `wg == num_wgs()` gives the whole output.
    ///
    /// # Panics
    ///
    /// Panics if `wg > num_wgs()`.
    fn wg_output_offset(&self, wg: u64) -> Bytes {
        assert!(wg <= self.num_wgs(), "wg out of range");
        let (row, col) = (wg / self.tiles_n, wg % self.tiles_n);
        let rows_above = (row * self.tile).min(self.shape.m);
        let height = self.shape.m.saturating_sub(row * self.tile).min(self.tile);
        (rows_above * self.shape.n + col * self.tile * height) * self.shape.elem_bytes
    }

    /// Output bytes produced in `stage`.
    pub fn stage_output_bytes(&self, stage: u64) -> Bytes {
        let (s, e) = self.stage_wgs(stage);
        self.wg_range_output_bytes(s, e)
    }

    /// The paper's `wf_tile_size` (Section 4.2.1): output elements per
    /// wavefront, `(M*N) / #WF`, as the GPU driver would compute it.
    pub fn wf_tile_elems(&self) -> u64 {
        (self.shape.m * self.shape.n).div_ceil(self.num_wfs())
    }

    /// Peak FLOPs executed by the largest WG in `stage` (stage compute
    /// latency is set by its largest tile; CUs run WGs in parallel).
    pub fn stage_wg_flops(&self, stage: u64) -> f64 {
        let (s, e) = self.stage_wgs(stage);
        (s..e)
            .map(|wg| {
                let t = self.wg_tile(wg);
                2.0 * t.height as f64 * t.width as f64 * self.shape.k as f64
            })
            .fold(0.0, f64::max)
    }

    // ---- Address layout -------------------------------------------------
    //
    // The simulated address space places A, then B, then C contiguously.
    // A is row-major (a tile-row of A is contiguous); B is stored
    // column-blocked (a tile-column of B is contiguous), as BLAS
    // libraries arrange for streaming reads; C is laid out WG-tile by
    // WG-tile so one WG's stores are contiguous (Section 4.2.1 tracks
    // WF output regions by their start address).

    /// Base address of the A operand.
    pub fn a_base(&self) -> u64 {
        0
    }

    /// Base address of the B operand.
    pub fn b_base(&self) -> u64 {
        self.a_base() + self.shape.a_bytes()
    }

    /// Base address of the C output.
    pub fn c_base(&self) -> u64 {
        self.b_base() + self.shape.b_bytes()
    }

    /// Start address and size of workgroup `wg`'s output region. Tiles
    /// are laid out in WG order, so the start is O(1); the Tracker
    /// bookkeeping of every fused engine and the functional model call
    /// this for each WF region they count.
    pub fn wg_output_region(&self, wg: u64) -> (u64, Bytes) {
        (
            self.c_base() + self.wg_output_offset(wg),
            self.wg_output_bytes(wg),
        )
    }

    /// Read regions (address, bytes) touched by `stage`: the unique
    /// A tile-rows and B tile-columns its WGs consume.
    pub fn stage_read_regions(&self, stage: u64) -> Vec<(u64, Bytes)> {
        let (start, end) = self.stage_wgs(stage);
        let mut regions = Vec::new();
        // Unique tile-rows form a contiguous range in row-major order.
        let row0 = start / self.tiles_n;
        let row1 = (end - 1) / self.tiles_n;
        let row_bytes = self.tile * self.shape.k * self.shape.elem_bytes;
        for row in row0..=row1 {
            let height = (self.shape.m - row * self.tile).min(self.tile);
            regions.push((
                self.a_base() + row * row_bytes,
                height * self.shape.k * self.shape.elem_bytes,
            ));
        }
        // Unique tile-columns: all of them if the stage spans a full
        // tile-row, otherwise the touched (possibly wrapping) span.
        let col_bytes = self.tile * self.shape.k * self.shape.elem_bytes;
        let mut push_col = |col: u64| {
            let width = (self.shape.n - col * self.tile).min(self.tile);
            regions.push((
                self.b_base() + col * col_bytes,
                self.shape.k * width * self.shape.elem_bytes,
            ));
        };
        if end - start >= self.tiles_n {
            for col in 0..self.tiles_n {
                push_col(col);
            }
        } else {
            let c0 = start % self.tiles_n;
            let c1 = (end - 1) % self.tiles_n;
            if c0 <= c1 {
                for col in c0..=c1 {
                    push_col(col);
                }
            } else {
                for col in 0..=c1 {
                    push_col(col);
                }
                for col in c0..self.tiles_n {
                    push_col(col);
                }
            }
        }
        regions
    }

    /// Extra read-traffic factor for transposed inputs (strided loads
    /// coalesce slightly worse; see DESIGN.md).
    pub fn read_overhead_factor(&self) -> f64 {
        if self.shape.transposed {
            1.1
        } else {
            1.0
        }
    }

    /// Splits the output into `chunks` contiguous WG ranges of
    /// near-equal *WG count* (collective chunking for fusion). Returns
    /// the `[start, end)` WG bounds of chunk `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= chunks` or `chunks == 0`.
    pub fn chunk_wg_bounds(&self, chunks: u64, i: u64) -> (u64, u64) {
        assert!(chunks > 0 && i < chunks, "chunk index out of range");
        let wgs = self.num_wgs();
        let base = wgs / chunks;
        let rem = wgs % chunks;
        let start = i * base + i.min(rem);
        let size = base + u64::from(i < rem);
        (start, start + size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_sim::config::SystemConfig;

    fn cfg() -> GpuConfig {
        SystemConfig::paper_default().gpu
    }

    fn grid(m: u64, n: u64, k: u64) -> GemmGrid {
        GemmGrid::new(&cfg(), GemmShape::new(m, n, k))
    }

    #[test]
    fn shape_byte_math() {
        let s = GemmShape::new(8, 16, 4);
        assert_eq!(s.a_bytes(), 64);
        assert_eq!(s.b_bytes(), 128);
        assert_eq!(s.output_bytes(), 256);
        assert_eq!(s.flops(), 1024.0);
    }

    #[test]
    fn tp_slicing_shrinks_only_k() {
        let s = GemmShape::new(8192, 4256, 17024).tp_sliced(8);
        assert_eq!(s.k, 2128);
        assert_eq!(s.m, 8192);
        assert_eq!(s.n, 4256);
    }

    #[test]
    fn tp_slicing_preserves_grid_structure() {
        // Figure 5: K-slicing leaves output size, WG count and stage
        // count unchanged.
        let full = grid(8192, 4256, 17024);
        let sliced = GemmGrid::new(&cfg(), GemmShape::new(8192, 4256, 17024).tp_sliced(8));
        assert_eq!(full.num_wgs(), sliced.num_wgs());
        assert_eq!(full.num_stages(), sliced.num_stages());
        assert_eq!(full.shape().output_bytes(), sliced.shape().output_bytes());
    }

    #[test]
    fn wg_and_stage_counts() {
        let g = grid(8192, 4256, 2128);
        assert_eq!(g.num_wgs(), 64 * 34);
        assert_eq!(g.concurrent_wgs(), 80);
        assert_eq!(g.num_stages(), (64u64 * 34).div_ceil(80));
    }

    #[test]
    fn stage_partition_covers_all_wgs_once() {
        let g = grid(1000, 1000, 64);
        let mut covered = 0;
        for stage in 0..g.num_stages() {
            let (s, e) = g.stage_wgs(stage);
            assert_eq!(s, covered);
            assert!(e > s);
            covered = e;
        }
        assert_eq!(covered, g.num_wgs());
    }

    #[test]
    fn edge_tiles_are_clipped() {
        let g = grid(200, 300, 64); // 2x3 tiles with 72x44 edges
        let t = g.wg_tile(g.num_wgs() - 1);
        assert_eq!(t.height, 72);
        assert_eq!(t.width, 44);
        // Total output bytes across WGs equals M*N*2.
        let total: Bytes = (0..g.num_wgs()).map(|w| g.wg_output_bytes(w)).sum();
        assert_eq!(total, g.shape().output_bytes());
    }

    #[test]
    fn wf_tile_matches_paper_formula() {
        let g = grid(8192, 4256, 2128);
        assert_eq!(
            g.wf_tile_elems(),
            (8192 * 4256u64).div_ceil(g.num_wgs() * 8)
        );
    }

    #[test]
    fn stage_read_regions_cover_a_and_b() {
        let g = grid(512, 512, 256);
        // 4x4 tiles = 16 WGs; one stage (80 concurrent).
        assert_eq!(g.num_stages(), 1);
        let regions = g.stage_read_regions(0);
        let a_bytes: Bytes = regions
            .iter()
            .filter(|(addr, _)| *addr < g.b_base())
            .map(|(_, b)| *b)
            .sum();
        let b_bytes: Bytes = regions
            .iter()
            .filter(|(addr, _)| *addr >= g.b_base())
            .map(|(_, b)| *b)
            .sum();
        assert_eq!(a_bytes, g.shape().a_bytes());
        assert_eq!(b_bytes, g.shape().b_bytes());
    }

    #[test]
    fn partial_row_stage_touches_subset_of_columns() {
        // Make a grid with 34 tile columns and force a tiny stage by
        // using a small-CU config.
        let mut c = cfg();
        c.num_cus = 10; // 10 concurrent WGs < 34 columns
        let g = GemmGrid::new(&c, GemmShape::new(8192, 4256, 2128));
        let regions = g.stage_read_regions(0);
        let b_regions = regions
            .iter()
            .filter(|(addr, _)| *addr >= g.b_base())
            .count();
        assert_eq!(b_regions, 10);
    }

    #[test]
    fn wrapping_stage_columns() {
        let mut c = cfg();
        c.num_cus = 10;
        let g = GemmGrid::new(&c, GemmShape::new(8192, 4256, 2128));
        // Stage 3 covers WGs 30..40, i.e. columns 30..34 and 0..6.
        let regions = g.stage_read_regions(3);
        let b_cols: Vec<u64> = regions
            .iter()
            .filter(|(addr, _)| *addr >= g.b_base())
            .map(|(addr, _)| (addr - g.b_base()) / (128 * 2128 * 2))
            .collect();
        assert_eq!(b_cols.len(), 10);
        assert!(b_cols.contains(&33));
        assert!(b_cols.contains(&0));
    }

    #[test]
    fn chunks_partition_wgs() {
        let g = grid(8192, 4256, 2128);
        for chunks in [2u64, 4, 8, 16] {
            let mut covered = 0;
            for i in 0..chunks {
                let (s, e) = g.chunk_wg_bounds(chunks, i);
                assert_eq!(s, covered);
                covered = e;
            }
            assert_eq!(covered, g.num_wgs());
        }
    }

    #[test]
    fn transposed_overhead() {
        let g = GemmGrid::new(&cfg(), GemmShape::new(64, 64, 64).with_transposed(true));
        assert!(g.read_overhead_factor() > 1.0);
        assert_eq!(grid(64, 64, 64).read_overhead_factor(), 1.0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dim_panics() {
        let _ = GemmShape::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "stage out of range")]
    fn stage_bounds_checked() {
        let g = grid(128, 128, 64);
        let _ = g.stage_wgs(1);
    }

    #[test]
    fn stage_wg_flops_uses_largest_tile() {
        let g = grid(200, 300, 64);
        let f = g.stage_wg_flops(0);
        assert_eq!(f, 2.0 * 128.0 * 128.0 * 64.0);
    }

    #[test]
    fn output_regions_are_disjoint_and_ordered() {
        let g = grid(300, 300, 64);
        let mut expected_start = g.c_base();
        for wg in 0..g.num_wgs() {
            let (addr, len) = g.wg_output_region(wg);
            assert_eq!(addr, expected_start);
            expected_start = addr + len;
        }
        assert_eq!(expected_start, g.c_base() + g.shape().output_bytes());
    }
}
