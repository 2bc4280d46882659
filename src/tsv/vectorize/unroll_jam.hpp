#pragma once
// Time-loop unroll-and-jam (paper §3.3, Algorithm 1).
//
// 1D: a register window of K+1 vector sets slides over the row. Iteration j
// loads set j (time level 0) and raises the window sets one level each
// (downward slot loop, exactly Algorithm 1), storing a set only when it
// reaches level K — one load + one store of each set per K time steps, i.e.
// the in-CPU flops/byte ratio grows K-fold. vrl[] slots preserve each set's
// last R vectors *before* it is raised, providing the left-side lower-level
// values the in-place update would otherwise destroy. Sets beyond the array
// bounds are virtual halo sets: Dirichlet values are constant in time, so a
// broadcast is valid at every level.
//
// 2D/3D: a row (plane) can't live in registers, so the intermediate time
// level is kept in an L1/L2-resident ring of row (plane) scratch buffers and
// the final level is written in place — the same halved main-memory traffic,
// as documented in docs/METHODS.md ("The uj2 level-1 ring"). Implemented for
// K = 2 (the paper's choice).

#include <cstdint>
#include <tuple>
#include <vector>

#include "tsv/vectorize/transpose_vs.hpp"

namespace tsv {

namespace detail {

/// Raises one vector set a single time level, in place (paper's Compute).
/// lt[R]: left-tail vectors (lane W-1 of lt[R-l] = element B-l at the source
/// level). rn: vectors whose lane 0 holds elements B+W², ..., B+W²+R-1 at the
/// source level (the next set's vectors 0..R-1, or halo broadcasts).
template <typename V, int R>
TSV_ALWAYS_INLINE void set_step(const V (&lt)[R], V (&v)[V::width], const V* rn,
                     const std::array<vec_value_t<V>, 2 * R + 1>& w) {
  constexpr int W = V::width;
  V ext[W + 2 * R];
  static_for<1, R + 1>(
      [&]<int L>() { ext[R - L] = assemble_left(lt[R - L], v[W - L]); });
  static_for<0, V::width>([&]<int J>() { ext[R + J] = v[J]; });
  static_for<1, R + 1>([&]<int L>() {
    ext[R + W - 1 + L] = assemble_right(v[L - 1], rn[L - 1]);
  });
  V out[W];
  static_for<0, V::width>([&]<int J>() {
    out[J] = V::zero();
    static_for<0, 2 * R + 1>([&]<int DXI>() {
      if (w[DXI] != 0)
        out[J] = fma(V::broadcast(w[DXI]), ext[J + DXI], out[J]);
    });
  });
  static_for<0, V::width>([&]<int J>() { v[J] = out[J]; });
}

}  // namespace detail

/// Advances a transpose-layout row by K time levels in place (Algorithm 1
/// with boot and epilogue folded into the slot guards). @p row must hold a
/// whole number of W² blocks; the x halo provides Dirichlet values.
template <typename V, int R, int K>
void unroll_jam_sweep_row(vec_value_t<V>* row,
                          const std::array<vec_value_t<V>, 2 * R + 1>& w,
                          index nx) {
  constexpr int W = V::width;
  constexpr index B = block_elems<W>;
  const index nsets = nx / B;

  // VS[1..K+1]: window slots; VS[i] holds set j-K+i-1 at level K-i+1 (after
  // this iteration's update). vrl[i]: the pre-update last R vectors of the
  // set in VS[i] (its level == K-i). Index 0 of vrl is the left neighbour of
  // VS[1]'s set.
  V VS[K + 2][W];
  V vrl[K + 1][R];

  // Virtual left halo: lane W-1 of vrl[i][R-l] must be element -l.
  for (int i = 0; i <= K; ++i)
    for (int l = 1; l <= R; ++l) vrl[i][R - l] = V::broadcast(row[-l]);
  // Window slots start as virtual sets; their content is never consumed for
  // a real update until a real set has been shifted in.
  for (int i = 1; i <= K + 1; ++i)
    for (int j = 0; j < W; ++j) VS[i][j] = V::broadcast(row[-1]);

  for (index jj = 0; jj <= nsets + K - 1; ++jj) {
    // Load set jj at level 0, or the virtual right-halo set: its vector j
    // only ever contributes lane 0 = element nsets*B + j = row[nx + j].
    if (jj < nsets) {
      for (int j = 0; j < W; ++j) VS[K + 1][j] = V::load(row + jj * B + j * W);
    } else {
      for (int j = 0; j < W && j < 2 * R; ++j)
        VS[K + 1][j] = V::broadcast(row[nx + j]);
    }

    for (int i = K; i >= 1; --i) {
      const index s_idx = jj - K + i - 1;
      if (s_idx < 0 || s_idx >= nsets) continue;
      for (int r = 0; r < R; ++r) vrl[i][r] = VS[i][W - R + r];  // pre-update
      detail::set_step<V, R>(vrl[i - 1], VS[i], VS[i + 1], w);
    }

    const index store_idx = jj - K;
    if (store_idx >= 0)
      for (int j = 0; j < W; ++j) VS[1][j].store(row + store_idx * B + j * W);

    for (int i = 1; i <= K; ++i)
      for (int j = 0; j < W; ++j) VS[i][j] = VS[i + 1][j];
    for (int i = 1; i <= K; ++i)
      for (int r = 0; r < R; ++r) vrl[i - 1][r] = vrl[i][r];
  }
}

// Compiled once in src/tsv/kernels_tu.cpp; see transpose_vs.hpp for why.
#define TSV_DECLARE_UJ_SWEEP(V, R, K)                   \
  extern template void unroll_jam_sweep_row<V, R, K>(   \
      V::value_type*, const std::array<V::value_type, 2 * R + 1>&, index);

#define TSV_DECLARE_UJ_SWEEPS_FOR(V) \
  TSV_DECLARE_UJ_SWEEP(V, 1, 1)      \
  TSV_DECLARE_UJ_SWEEP(V, 1, 2)      \
  TSV_DECLARE_UJ_SWEEP(V, 1, 3)      \
  TSV_DECLARE_UJ_SWEEP(V, 1, 4)      \
  TSV_DECLARE_UJ_SWEEP(V, 2, 2)

#if !defined(TSV_KERNELS_TU)
TSV_DECLARE_UJ_SWEEPS_FOR(VecD2)
TSV_DECLARE_UJ_SWEEPS_FOR(VecF4)
#if defined(__AVX2__)
TSV_DECLARE_UJ_SWEEPS_FOR(VecD4)
TSV_DECLARE_UJ_SWEEPS_FOR(VecF8)
#endif
#if defined(__AVX512F__)
TSV_DECLARE_UJ_SWEEPS_FOR(VecD8)
TSV_DECLARE_UJ_SWEEPS_FOR(VecF16)
#endif
#endif  // !TSV_KERNELS_TU

/// Untiled run driver: transform to transpose layout, ⌊T/K⌋ fused K-step
/// sweeps + remainder Jacobi steps, transform back. 1D runs Algorithm 1's
/// register window (any K); 2D/3D keep the intermediate level in a ring of
/// 2R+1 slabs along the outermost axis — rows in 2D, planes in 3D — and
/// support K = 2. The ring and the remainder parity buffer live in @p ws.
template <typename V, int K = 2, typename G, typename S>
TSV_NOINLINE void unroll_jam_run(G& g, const S& s, index steps,
                                 Workspace& ws) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  constexpr int R = S::radius;
  constexpr int D = G::kRank;
  static_assert(D == 1 || K == 2, "2D/3D unroll-and-jam implements K = 2");
  detail::require_transpose_conforming(g, W);
  const TapRows<S> taps(s);
  const index nx = g.nx();
  const index sweeps = steps / K;

  block_transpose_grid<T, W>(g);
  if constexpr (D == 1) {
    for (index q = 0; q < sweeps; ++q)
      unroll_jam_sweep_row<V, R, K>(g.x0(), taps.w[0], nx);
  } else {
    constexpr int NR = TapRows<S>::kCap;
    constexpr index RB = 2 * R + 1;
    using Slab = Grid<T, D - 1>;
    const auto n = g.extents();
    const index no = n[D - 1];  // outermost extent: the ring's axis
    std::array<index, D - 1> sn;
    std::copy_n(n.begin(), D - 1, sn.begin());
    const std::uint64_t key =
        std::apply([](auto... e) { return ws_key(e..., index{R}); }, sn);
    std::vector<Slab>& ring = ws.slot<std::vector<Slab>>(kWsRing, key, [&] {
      std::vector<Slab> r;
      r.reserve(RB);
      for (index i = 0; i < RB; ++i) r.push_back(Slab(sn, R));
      return r;
    });
    auto ring_slot = [&](index o) { return ((o % RB) + RB) % RB; };
    // Row (y, z) at level 1: its ring slab; halo slabs and halo rows resolve
    // to the main grid (Dirichlet values, valid at every level).
    auto row_l1 = [&](index y, index z) -> const T* {
      const index o = D == 2 ? y : z;
      if (o < 0 || o >= no || y < 0 || y >= n[1]) return g.row_at(y, z);
      return ring[ring_slot(o)].row_at(y, z);
    };
    auto slab_box = [&](index o) {
      Box<D> b = interior_box(g);
      b.lo[D - 1] = o;
      b.hi[D - 1] = o + 1;
      return b;
    };
    for (index q = 0; q < sweeps; ++q)
      for (index oo = 0; oo <= no - 1 + R; ++oo) {
        if (oo < no)  // level 1 of slab oo from level-0 rows (intact in g)
          row_walk(g, slab_box(oo), taps,
                   [&](const auto& rp, index y, index z) {
                     // The x halo carries the Dirichlet values.
                     T* d = ring[ring_slot(oo)].row_at(y, z);
                     const T* src = g.row_at(y, z);
                     for (index l = 1; l <= R; ++l) d[-l] = src[-l];
                     for (index l = 0; l < R; ++l) d[nx + l] = src[nx + l];
                     transpose_sweep_row_region<V, R, NR>(rp, d, taps.w, nx,
                                                          0, nx);
                   });
        if (oo - R >= 0)  // level 2 of slab oo-R from the ring, in place
          row_walk(slab_box(oo - R), taps, row_l1,
                   [&](const auto& rp, index y, index z) {
                     transpose_sweep_row_region<V, R, NR>(
                         rp, g.row_at(y, z), taps.w, nx, 0, nx);
                   });
      }
  }
  const auto all = interior_box(g);
  jacobi_run(g, steps - sweeps * K, ws, kWsTmpGrid, [&](const G& in, G& out) {
    transpose_step_region<V>(in, out, taps, all);
  });
  block_transpose_grid<T, W>(g);
}

}  // namespace tsv
