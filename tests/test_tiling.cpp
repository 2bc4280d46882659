// Tiling correctness: tessellation (all stages, all methods) must be
// bit-equivalent in shape to the untiled schedule — we verify against the
// scalar reference over exhaustive small configurations, which exercises
// every triangle/inverted-triangle/seam/boundary combination.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "tsv/kernels/reference.hpp"
#include "tsv/tiling/tiled.hpp"

namespace tsv {
namespace {

constexpr double kTol = 1e-11;

double f1(index x) { return std::sin(0.037 * x) + 0.01 * x; }
double f2(index x, index y) { return std::sin(0.037 * x + 0.11 * y) - 0.002 * y; }
double f3(index x, index y, index z) {
  return std::sin(0.037 * x + 0.11 * y - 0.05 * z) + 0.001 * (x - z);
}

template <int R, typename Fn>
void check_1d(index nx, index steps, const Stencil1D<R>& s, Fn&& fn,
              const char* what) {
  Grid1D<double> ref(nx, R), got(nx, R);
  ref.fill(f1);
  got.fill(f1);
  reference_run(ref, s, steps);
  fn(got, s, steps);
  EXPECT_LE(max_abs_diff(ref, got), kTol)
      << what << " nx=" << nx << " T=" << steps;
}

// ---- 1D exhaustive sweeps ----------------------------------------------------

TEST(Tess1D, AutovecAllConfigs) {
  const auto s = make_1d3p(0.32);
  for (index nx : {32, 48, 97})
    for (index bx : {16, 32})
      for (index bt : {1, 2, 3, 4})
        for (index steps : {0, 1, 3, 6, 7}) {
          if (tile_count(nx, bx) > 1 && bx < 2 * 1 * bt) continue;
          check_1d(nx, steps, s,
                   [&](auto& g, auto& st, index t) {
                     Workspace ws;
                     tess_autovec_run(g, st, t, {bx}, bt, ws);
                   },
                   "tess-autovec");
        }
}

TEST(Tess1D, AutovecRadius2) {
  const auto s = make_1d5p(0.05, 0.2, 0.5);
  for (index bx : {24, 48})
    for (index bt : {2, 4})
      for (index steps : {3, 8}) {
        if (24 < 2 * 2 * bt && bx == 24) continue;
        check_1d(96, steps, s,
                 [&](auto& g, auto& st, index t) {
                   Workspace ws;
                   tess_autovec_run(g, st, t, {bx}, bt, ws);
                 },
                 "tess-autovec-r2");
      }
}

template <typename V>
void transpose_tiled_1d_sweep() {
  constexpr int W = V::width;
  const auto s = make_1d3p(0.29);
  const index nx = 8 * W * W;
  for (index bx : {2 * W * W, 4 * W * W})
    for (index bt : {1, 2, 4})
      for (index steps : {0, 1, 4, 7}) {
        if (bx < 2 * bt) continue;
        check_1d(nx, steps, s,
                 [&](auto& g, auto& st, index t) {
                   Workspace ws;
                   tess_transpose_run<V>(g, st, t, {bx}, bt, ws);
                 },
                 "tess-transpose");
      }
  // Radius-2 stencil, tile edges cut through vector sets.
  const auto s5 = make_1d5p(0.06, 0.2, 0.44);
  for (index steps : {2, 5})
    check_1d(nx, steps, s5,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_run<V>(g, st, t, {2 * W * W}, 2, ws);
             },
             "tess-transpose-r2");
}

TEST(Tess1D, TransposeW2) { transpose_tiled_1d_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Tess1D, TransposeAvx2) { transpose_tiled_1d_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Tess1D, TransposeAvx512) { transpose_tiled_1d_sweep<Vec<double, 8>>(); }
#endif

template <typename V>
void uj2_tiled_1d_sweep() {
  constexpr int W = V::width;
  const auto s = make_1d3p(0.27);
  const index nx = 8 * W * W;
  for (index bx : {2 * W * W, 4 * W * W})
    for (index bt : {2, 4})
      for (index steps : {0, 2, 4, 6, 7, 9}) {  // odd tails included
        if (bx < 2 * bt) continue;
        check_1d(nx, steps, s,
                 [&](auto& g, auto& st, index t) {
                   Workspace ws;
                   tess_transpose_uj2_run<V>(g, st, t, {bx}, bt, ws);
                 },
                 "tess-uj2");
      }
  const auto s5 = make_1d5p(0.05, 0.22, 0.4);
  for (index steps : {4, 5})
    check_1d(nx, steps, s5,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_uj2_run<V>(g, st, t, {4 * W * W}, 2, ws);
             },
             "tess-uj2-r2");
}

TEST(Tess1D, Uj2W2) { uj2_tiled_1d_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Tess1D, Uj2Avx2) { uj2_tiled_1d_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Tess1D, Uj2Avx512) { uj2_tiled_1d_sweep<Vec<double, 8>>(); }
#endif

template <typename V>
void sdsl_1d_sweep() {
  constexpr int W = V::width;
  const auto s = make_1d3p(0.3);
  const index nx = 64 * W;  // L = 64 columns
  for (index bi : {16, 32})
    for (index bt : {2, 4})
      for (index steps : {0, 1, 4, 9}) {
        if (bi < 2 * bt) continue;
        check_1d(nx, steps, s,
                 [&](auto& g, auto& st, index t) {
                   Workspace ws;
                   sdsl_run<V>(g, st, t, bi, bt, ws);
                 },
                 "sdsl");
      }
  const auto s5 = make_1d5p(0.07, 0.2, 0.42);
  check_1d(nx, 6, s5,
           [&](auto& g, auto& st, index t) {
             Workspace ws;
             sdsl_run<V>(g, st, t, 16, 2, ws);
           },
           "sdsl-r2");
}

TEST(Split1D, SdslW2) { sdsl_1d_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Split1D, SdslAvx2) { sdsl_1d_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Split1D, SdslAvx512) { sdsl_1d_sweep<Vec<double, 8>>(); }
#endif

TEST(Tess1D, MultiloadAndReorgTiled) {
  const auto s = make_1d3p(0.26);
  using V = Vec<double, 2>;
  for (index steps : {3, 6}) {
    check_1d(96, steps, s,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_multiload_run<V>(g, st, t, {32}, 3, ws);
             },
             "tess-multiload");
    check_1d(96, steps, s,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_reorg_run<V>(g, st, t, {32}, 3, ws);
             },
             "tess-reorg");
  }
}

TEST(Split1D, RaggedLastTileIsSafe) {
  // Regression: a ragged last tile smaller than 2*r*bt used to let the
  // inverted seam overrun the domain (heap overflow) and overlap the wrap
  // seam. The driver must clamp the temporal range and stay correct.
  using V = Vec<double, 2>;
  const auto s = make_1d3p(0.3);
  // L = 123 columns, bi = 32 -> last tile 27 < 2*1*16.
  const index nx = 2 * 123;
  for (index bt : {4, 16, 64})
    check_1d(nx, 9, s,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               sdsl_run<V>(g, st, t, 32, bt, ws);
             },
             "sdsl-ragged");
}

TEST(Tess1D, RaggedLastTileIsSafe) {
  const auto s = make_1d3p(0.28);
  for (index nx : {70, 100})
    for (index bt : {2, 4})
      check_1d(nx, 7, s,
               [&](auto& g, auto& st, index t) {
                 Workspace ws;
                 tess_autovec_run(g, st, t, {32}, bt, ws);
               },
               "tess-ragged");
}

TEST(Tess1D, RejectsBadBlocking) {
  const auto s = make_1d3p();
  Workspace ws;
  Grid1D<double> g(64, 1);
  g.fill(f1);
  // Multiple tiles with bx < 2*r*bt must be rejected.
  EXPECT_THROW(tess_autovec_run(g, s, 4, {8}, 8, ws), std::invalid_argument);
  // Odd bt for the pair scheme must be rejected.
  EXPECT_THROW((tess_transpose_uj2_run<Vec<double, 2>>(g, s, 4, {16}, 3, ws)),
               std::invalid_argument);
}

// ---- 2D ----------------------------------------------------------------------

template <int R, int NR, typename Fn>
void check_2d(index nx, index ny, index steps, const Stencil2D<R, NR>& s,
              Fn&& fn, const char* what) {
  Grid2D<double> ref(nx, ny, R), got(nx, ny, R);
  ref.fill(f2);
  got.fill(f2);
  reference_run(ref, s, steps);
  fn(got, s, steps);
  EXPECT_LE(max_abs_diff(ref, got), kTol)
      << what << " " << nx << "x" << ny << " T=" << steps;
}

TEST(Tess2D, AutovecConfigs) {
  const auto s = make_2d5p(0.45, 0.14, 0.13);
  for (index bx : {16, 32})
    for (index by : {8, 16})
      for (index bt : {2, 4})
        for (index steps : {0, 3, 7}) {
          if (bx < 2 * bt || by < 2 * bt) continue;
          check_2d(32, 24, steps, s,
                   [&](auto& g, auto& st, index t) {
                     Workspace ws;
                     tess_autovec_run(g, st, t, {bx, by}, bt, ws);
                   },
                   "tess2d-autovec");
        }
}

TEST(Tess2D, AutovecBox) {
  const auto s = make_2d9p(0.21, 0.1, 0.07);
  check_2d(32, 24, 6, s,
           [&](auto& g, auto& st, index t) {
             Workspace ws;
             tess_autovec_run(g, st, t, {16, 12}, 3, ws);
           },
           "tess2d-autovec-box");
}

template <typename V>
void tess2d_transpose_sweep() {
  constexpr int W = V::width;
  const auto s5 = make_2d5p(0.44, 0.15, 0.12);
  const auto s9 = make_2d9p(0.19, 0.11, 0.06);
  const index nx = 4 * W * W;
  for (index steps : {0, 3, 6}) {
    check_2d(nx, 24, steps, s5,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_run<V>(g, st, t, {2 * W * W, 12}, 3, ws);
             },
             "tess2d-transpose");
    check_2d(nx, 24, steps, s9,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_run<V>(g, st, t, {2 * W * W, 12}, 3, ws);
             },
             "tess2d-transpose-box");
    check_2d(nx, 24, steps, s5,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_uj2_run<V>(g, st, t, {2 * W * W, 12}, 2, ws);
             },
             "tess2d-uj2");
    check_2d(nx, 24, steps, s9,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_uj2_run<V>(g, st, t, {2 * W * W, 12}, 2, ws);
             },
             "tess2d-uj2-box");
    check_2d(nx, 24, steps, s5,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               sdsl_run<V>(g, st, t, 12, 3, ws);
             },
             "sdsl2d");
  }
}

TEST(Tess2D, TransposeW2) { tess2d_transpose_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Tess2D, TransposeAvx2) { tess2d_transpose_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Tess2D, TransposeAvx512) { tess2d_transpose_sweep<Vec<double, 8>>(); }
#endif

// ---- 3D ----------------------------------------------------------------------

template <int R, int NR, typename Fn>
void check_3d(index nx, index ny, index nz, index steps,
              const Stencil3D<R, NR>& s, Fn&& fn, const char* what) {
  Grid3D<double> ref(nx, ny, nz, R), got(nx, ny, nz, R);
  ref.fill(f3);
  got.fill(f3);
  reference_run(ref, s, steps);
  fn(got, s, steps);
  EXPECT_LE(max_abs_diff(ref, got), kTol)
      << what << " " << nx << "x" << ny << "x" << nz << " T=" << steps;
}

TEST(Tess3D, Autovec) {
  const auto s = make_3d7p(0.4, 0.1, 0.11, 0.09);
  check_3d(24, 16, 16, 5, s,
           [&](auto& g, auto& st, index t) {
             Workspace ws;
             tess_autovec_run(g, st, t, {12, 8, 8}, 2, ws);
           },
           "tess3d-autovec");
}

template <typename V>
void tess3d_transpose_sweep() {
  constexpr int W = V::width;
  const auto s7 = make_3d7p(0.41, 0.09, 0.1, 0.12);
  const auto s27 = make_3d27p(0.12);
  const index nx = 2 * W * W;
  for (index steps : {0, 3, 6}) {
    check_3d(nx, 16, 16, steps, s7,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_run<V>(g, st, t, {W * W, 8, 8}, 2, ws);
             },
             "tess3d-transpose");
    check_3d(nx, 16, 16, steps, s7,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_uj2_run<V>(g, st, t, {W * W, 8, 8}, 2, ws);
             },
             "tess3d-uj2");
    check_3d(nx, 16, 16, steps, s27,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_uj2_run<V>(g, st, t, {W * W, 8, 8}, 2, ws);
             },
             "tess3d-uj2-box");
    check_3d(nx, 16, 16, steps, s7,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               sdsl_run<V>(g, st, t, 8, 2, ws);
             },
             "sdsl3d");
  }
}

TEST(Tess3D, TransposeW2) { tess3d_transpose_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Tess3D, TransposeAvx2) { tess3d_transpose_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Tess3D, TransposeAvx512) { tess3d_transpose_sweep<Vec<double, 8>>(); }
#endif

// ---- ragged last tiles (2D/3D) ------------------------------------------------
// Extents the blocks do not divide: ny = 29 over by = 12 and nz = 19 over
// bz = 8 leave a short last tile on y/z (and nx = 40 over bx = 16 on x for
// autovec, which has no layout constraint on x).

TEST(Tess2D, AutovecRaggedTiles) {
  const auto s9 = make_2d9p(0.21, 0.1, 0.07);
  for (index bt : {2, 3})
    for (index steps : {3, 7}) {
      check_2d(40, 29, steps, s9,
               [&](auto& g, auto& st, index t) {
                 Workspace ws;
                 tess_autovec_run(g, st, t, {16, 12}, bt, ws);
               },
               "tess2d-autovec-ragged");
    }
}

template <typename V>
void tess2d_ragged_sweep() {
  constexpr int W = V::width;
  const auto s5 = make_2d5p(0.43, 0.14, 0.13);
  const auto s9 = make_2d9p(0.18, 0.12, 0.06);
  const index nx = 4 * W * W;
  for (index steps : {3, 6, 7}) {
    check_2d(nx, 29, steps, s5,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_run<V>(g, st, t, {2 * W * W, 12}, 3, ws);
             },
             "tess2d-transpose-ragged");
    check_2d(nx, 29, steps, s9,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_uj2_run<V>(g, st, t, {2 * W * W, 12}, 4, ws);
             },
             "tess2d-uj2-ragged");
    check_2d(nx, 29, steps, s5,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               sdsl_run<V>(g, st, t, 12, 3, ws);
             },
             "sdsl2d-ragged");
  }
}

TEST(Tess2D, RaggedW2) { tess2d_ragged_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Tess2D, RaggedAvx2) { tess2d_ragged_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Tess2D, RaggedAvx512) { tess2d_ragged_sweep<Vec<double, 8>>(); }
#endif

TEST(Tess3D, AutovecRaggedTiles) {
  const auto s7 = make_3d7p(0.4, 0.1, 0.11, 0.09);
  for (index steps : {3, 6})
    check_3d(20, 13, 19, steps, s7,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_autovec_run(g, st, t, {12, 8, 8}, 2, ws);
             },
             "tess3d-autovec-ragged");
}

template <typename V>
void tess3d_ragged_sweep() {
  constexpr int W = V::width;
  const auto s7 = make_3d7p(0.41, 0.09, 0.1, 0.12);
  const auto s27 = make_3d27p(0.12);
  const index nx = 2 * W * W;
  for (index steps : {3, 5}) {
    check_3d(nx, 13, 19, steps, s7,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_run<V>(g, st, t, {W * W, 8, 8}, 2, ws);
             },
             "tess3d-transpose-ragged");
    check_3d(nx, 13, 19, steps, s27,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               tess_transpose_uj2_run<V>(g, st, t, {nx, 8, 8}, 4, ws);
             },
             "tess3d-uj2-ragged");
    check_3d(nx, 13, 19, steps, s7,
             [&](auto& g, auto& st, index t) {
               Workspace ws;
               sdsl_run<V>(g, st, t, 8, 2, ws);
             },
             "sdsl3d-ragged");
  }
}

TEST(Tess3D, RaggedW2) { tess3d_ragged_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Tess3D, RaggedAvx2) { tess3d_ragged_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Tess3D, RaggedAvx512) { tess3d_ragged_sweep<Vec<double, 8>>(); }
#endif

// ---- tiled == untiled, bitwise ----------------------------------------------
// A tessellated transpose run computes every cell with the same sweep
// arithmetic as the untiled run of the same method — rim sets go through the
// same vector kernel and only their stores are masked — so the results must
// agree bit for bit, not just within a tolerance. The configurations cover
// ragged tiles on every axis, a single x tile (every level-1 window then
// touches both row ends), a uj2 scratch window narrower than the row, odd
// step counts (the single-step tail) and non-zero Dirichlet halos (the
// fields are evaluated on the halo too).

template <typename G>
bool interiors_bitwise_equal(const G& a, const G& b) {
  const Box<3> box = as_box3(interior_box(a));
  const auto bytes = static_cast<std::size_t>(a.nx()) * sizeof(double);
  for (index z = box.lo[2]; z < box.hi[2]; ++z)
    for (index y = box.lo[1]; y < box.hi[1]; ++y)
      if (std::memcmp(a.row_at(y, z), b.row_at(y, z), bytes) != 0)
        return false;
  return true;
}

template <typename V, typename G, typename S>
void check_tiled_bitwise(const G& init, const S& s, index steps,
                         const Blocks& blk, index bt, const std::string& what) {
  Workspace ws;
  G untiled = init, tiled = init;
  transpose_vs_run<V>(untiled, s, steps, ws);
  tess_transpose_run<V>(tiled, s, steps, blk, bt, ws);
  EXPECT_TRUE(interiors_bitwise_equal(untiled, tiled))
      << "transpose " << what << " T=" << steps << " bt=" << bt;
  untiled = init;
  tiled = init;
  unroll_jam_run<V>(untiled, s, steps, ws);
  tess_transpose_uj2_run<V>(tiled, s, steps, blk, bt, ws);
  EXPECT_TRUE(interiors_bitwise_equal(untiled, tiled))
      << "transpose-uj2 " << what << " T=" << steps << " bt=" << bt;
}

template <typename V>
void tiled_bitwise_sweep() {
  constexpr index B = block_elems<V::width>;
  const auto s5 = make_2d5p(0.43, 0.14, 0.13);
  const auto s9 = make_2d9p(0.18, 0.12, 0.06);
  const auto s7 = make_3d7p(0.41, 0.09, 0.1, 0.12);
  // 2D: 5 x blocks over 2-block tiles (ragged x, 3 tiles), a single x tile,
  // and narrow tiles (the smallest legal whole-block width) over 8 of them,
  // whose uj2 level-1 windows are narrower than the row.
  const index bxn = std::max<index>(B, 16);
  for (index nx : {5 * B, 8 * bxn}) {
    Grid2D<double> g(nx, 29, 1);
    g.fill(f2);
    for (const Blocks& blk : {Blocks{2 * B, 12}, Blocks{nx + B, 12},
                              Blocks{bxn, 8}})
      for (index steps : {7, 8}) {
        const std::string what = "2d nx=" + std::to_string(nx) +
                                 " bx=" + std::to_string(blk[0]) +
                                 " by=" + std::to_string(blk[1]);
        check_tiled_bitwise<V>(g, s5, steps, blk, 4, "2d5p " + what);
        check_tiled_bitwise<V>(g, s9, steps, blk, 2, "2d9p " + what);
      }
  }
  // 3D: ragged y and z tiles, over one and over two x tiles.
  Grid3D<double> g(2 * B, 13, 19, 1);
  g.fill(f3);
  for (const Blocks& blk : {Blocks{B, 8, 8}, Blocks{2 * B, 6, 8}})
    for (index steps : {5, 6})
      check_tiled_bitwise<V>(g, s7, steps, blk, 2,
                             "3d7p bx=" + std::to_string(blk[0]));
}

TEST(TiledBitwise, W2) { tiled_bitwise_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(TiledBitwise, Avx2) { tiled_bitwise_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(TiledBitwise, Avx512) { tiled_bitwise_sweep<Vec<double, 8>>(); }
#endif

// ---- engine schedule invariants -----------------------------------------------
// The engine runs against a per-cell level counter instead of a kernel: the
// advance callback lifts every cell of its box one level. Whatever the team
// size, (a) every cell must end at exactly `units`, and (b) when a region
// lifts a cell from level L to L+1, every in-domain cell within `slope` on
// each axis must be at level L or L+1 — lower is an unmet dependency, L+2
// means the level-L parity buffer was already overwritten. The in-buffer the
// engine hands over must also match L's parity.

template <int D, typename Fn>
void for_each_cell(const Box<D>& b, Fn&& fn) {
  for (int d = 0; d < D; ++d)
    if (b.lo[d] >= b.hi[d]) return;
  std::array<index, D> c = b.lo;
  for (;;) {
    fn(c);
    int d = 0;
    while (d < D && ++c[d] == b.hi[d]) {
      c[d] = b.lo[d];
      ++d;
    }
    if (d == D) return;
  }
}

template <int D>
void check_engine_schedule(const std::array<index, D>& n,
                           const std::array<index, D>& blk, index units,
                           index tau, index slope) {
  index cells = 1;
  for (int d = 0; d < D; ++d) cells *= n[d];
  std::vector<std::atomic<index>> level(static_cast<std::size_t>(cells));
  auto at = [&](const std::array<index, D>& c) -> std::atomic<index>& {
    index f = 0;
    for (int d = D - 1; d >= 0; --d) f = f * n[d] + c[d];
    return level[static_cast<std::size_t>(f)];
  };
  std::atomic<index> unmet{0}, clobbered{0}, wrong_parity{0};
  Grid1D<double> A(1, 1), B(1, 1);  // stand-ins: only their identity matters
  tess_engine<D>(A, B, n, blk, units, tau, slope,
                 [&](const Grid1D<double>& in, Grid1D<double>&,
                     const Box<D>& b) {
                   for_each_cell(b, [&](const std::array<index, D>& c) {
                     const index L = at(c).load();
                     if ((L % 2 == 0) != (&in == &A)) ++wrong_parity;
                     Box<D> nb;  // the cell's dependency cone, clipped
                     for (int d = 0; d < D; ++d) {
                       nb.lo[d] = std::max<index>(0, c[d] - slope);
                       nb.hi[d] = std::min(n[d], c[d] + slope + 1);
                     }
                     for_each_cell(nb, [&](const std::array<index, D>& e) {
                       const index le = at(e).load();
                       if (le < L) ++unmet;
                       if (le > L + 1) ++clobbered;
                     });
                     at(c).fetch_add(1);
                   });
                 });
  index wrong_final = 0;
  for (const auto& l : level) wrong_final += l.load() != units;
  const auto cfg = [&] {
    std::string s = "D=" + std::to_string(D) + " tau=" +
                    std::to_string(tau) + " slope=" + std::to_string(slope);
    for (int d = 0; d < D; ++d)
      s += " n" + std::to_string(d) + "=" + std::to_string(n[d]) + "/" +
           std::to_string(blk[d]);
    return s;
  };
  EXPECT_EQ(wrong_final, 0) << "cells not at `units` " << cfg();
  EXPECT_EQ(unmet.load(), 0) << "unmet dependencies " << cfg();
  EXPECT_EQ(clobbered.load(), 0) << "overwritten parity levels " << cfg();
  EXPECT_EQ(wrong_parity.load(), 0) << "wrong in-buffer parity " << cfg();
}

/// Block choices per axis of extent @p n: the tightest legal block, a block
/// leaving a ragged last tile, and one larger than the axis (single tile).
std::vector<index> engine_blocks(index n, index slope, index tau) {
  const index tight = 2 * slope * tau;
  return {tight, tight + 3, n + 5};
}

TEST(TessEngine, ScheduleInvariants1D) {
  for (index tau : {1, 2, 3})
    for (index slope : {1, 2})
      for (index n : {37, 48})
        for (index b : engine_blocks(n, slope, tau))
          check_engine_schedule<1>({n}, {b}, 7, tau, slope);
}

TEST(TessEngine, ScheduleInvariants2D) {
  for (index tau : {1, 2, 3})
    for (index slope : {1, 2}) {
      const std::array<index, 2> n{29, 23};
      for (index bx : engine_blocks(n[0], slope, tau))
        for (index by : engine_blocks(n[1], slope, tau))
          check_engine_schedule<2>(n, {bx, by}, 5, tau, slope);
    }
}

TEST(TessEngine, ScheduleInvariants3D) {
  for (index tau : {1, 2, 3})
    for (index slope : {1, 2}) {
      const std::array<index, 3> n{17, 14, 19};
      const index tight = 2 * slope * tau;
      for (const std::array<index, 3>& b :
           {std::array<index, 3>{tight, tight, tight},
            std::array<index, 3>{tight + 3, tight + 1, tight + 2},
            std::array<index, 3>{n[0] + 5, tight + 3, n[2] + 1}})
        check_engine_schedule<3>(n, b, 4, tau, slope);
    }
}

}  // namespace
}  // namespace tsv
