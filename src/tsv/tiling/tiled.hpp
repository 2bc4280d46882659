#pragma once
// Tiled method drivers: each paper method composed with its tiling framework.
//
//  * tess_autovec_run      — "Tessellation" baseline (Yuan SC'17): tessellate
//                            tiling + compiler-vectorized kernels.
//  * tess_multiload/reorg  — ablation variants.
//  * tess_transpose_run    — the paper's scheme ("Our"): tessellate tiling +
//                            transpose-layout vector sets; partial sets at
//                            moving tile edges through the same vector
//                            kernel with masked stores.
//  * tess_transpose_uj2_run— "Our (2 steps)": tessellation at two-step *pair*
//                            granularity (triangle slope 2r per pair, paper
//                            Fig. 5); the intermediate odd time level lives
//                            only in a per-thread L1/L2 scratch, so main
//                            memory sees one read + one write per two steps.
//  * sdsl_run              — SDSL baseline (Henretty ICS'13): DLT layout +
//                            split tiling (1D: triangles over DLT columns
//                            with a wrapped seam at the lane boundary;
//                            2D/3D: hybrid tiling — outer-dimension
//                            tessellation over full DLT rows/planes).
//
// Every driver is generic over the element type: the V-parameterized ones
// compute in vec_value_t<V>, the autovec ones in the grid's own T.
//
// Every driver is one template over the grid type: the tessellate engine
// (tiling/tess.hpp) hands it Box regions of any rank and the method's
// *_step_region sweeps them through the shared row walk
// (vectorize/method_common.hpp). Tile extents arrive as one Blocks value.
//
// Memory behaviour: every buffer a driver needs beyond the user's grid —
// the tessellation parity buffer, DLT staging grids, per-thread uj2 scratch
// pools — comes from the caller's Workspace (core/workspace.hpp), so the
// second and subsequent executes of a plan are allocation-free. Parity /
// staging buffers only need their *halo* refreshed per execute (every time
// unit rewrites the whole interior before reading it); per-thread pools are
// first-touched by their owning threads.
// The @p stream flag (plan-resolved; see ResolvedOptions::streaming) selects
// non-temporal write-back in the vector sweeps — only ever enabled when the
// working set exceeds the LLC threshold and the temporal block is 1, i.e.
// when there is no cache reuse for regular stores to protect.

#include <omp.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "tsv/core/workspace.hpp"
#include "tsv/tiling/tess.hpp"
#include "tsv/vectorize/autovec.hpp"
#include "tsv/vectorize/dlt_method.hpp"
#include "tsv/vectorize/multiload.hpp"
#include "tsv/vectorize/reorg.hpp"
#include "tsv/vectorize/unroll_jam.hpp"

namespace tsv {

template <typename G, typename S>
TSV_NOINLINE void tess_autovec_run(G& g, const S& s, index steps,
                                   const Blocks& blk, index bt,
                                   Workspace& ws) {
  const TapRows<S> taps(s);
  tess_run(g, steps, blk, bt, S::radius, ws,
           [&](const G& in, G& out, const Box<G::kRank>& b) {
             autovec_step_region(in, out, taps, b);
           });
}

template <typename V, typename G, typename S>
TSV_NOINLINE void tess_multiload_run(G& g, const S& s, index steps,
                                     const Blocks& blk, index bt,
                                     Workspace& ws) {
  const TapRows<S> taps(s);
  tess_run(g, steps, blk, bt, S::radius, ws,
           [&](const G& in, G& out, const Box<G::kRank>& b) {
             multiload_step_region<V>(in, out, taps, b);
           });
}

template <typename V, typename G, typename S>
TSV_NOINLINE void tess_reorg_run(G& g, const S& s, index steps,
                                 const Blocks& blk, index bt, Workspace& ws) {
  const TapRows<S> taps(s);
  tess_run(g, steps, blk, bt, S::radius, ws,
           [&](const G& in, G& out, const Box<G::kRank>& b) {
             reorg_step_region<V>(in, out, taps, b);
           });
}

template <typename V, typename G, typename S>
TSV_NOINLINE void tess_transpose_run(G& g, const S& s, index steps,
                                     const Blocks& blk, index bt,
                                     Workspace& ws, bool stream = false) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  detail::require_transpose_conforming(g, W);
  const TapRows<S> taps(s);
  block_transpose_grid<T, W>(g);
  tess_run(g, steps, blk, bt, S::radius, ws,
           [&](const G& in, G& out, const Box<G::kRank>& b) {
             transpose_step_region<V>(in, out, taps, b, stream);
           });
  block_transpose_grid<T, W>(g);
}

/// "Our (2 steps)" with tiling: pair-granular tessellation. @p bt is the time
/// range in *steps* (must be even when tiling is active). Each region grows
/// by R per axis for the transient level 1, which lives in a per-thread
/// scratch (docs/METHODS.md, "The uj2 level-1 ring"); level 2 goes to the
/// opposite parity buffer.
template <typename V, typename G, typename S>
TSV_NOINLINE void tess_transpose_uj2_run(G& g, const S& s, index steps,
                                         const Blocks& blk, index bt,
                                         Workspace& ws) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  constexpr int R = S::radius;
  constexpr int D = G::kRank;
  constexpr int NR = TapRows<S>::kCap;
  constexpr index B = block_elems<W>;
  detail::require_transpose_conforming(g, W);
  require_fmt(bt % 2 == 0, "uj2 tiling: time range bt=", bt, " must be even");
  const TapRows<S> taps(s);
  const auto n = g.extents();
  const index nx = n[0];

  // Per-thread scratch for the transient odd level of one tile region,
  // first-touched by its owning thread (static schedule = thread i zeroes
  // pool[i] when the team matches, which is how the tile loops index it).
  // Rows are a block-aligned window of sw cells over the grown region's x
  // range (docs/METHODS.md, "The uj2 level-1 ring"): its sets (at most
  // round_up(bx + 2R, B) / B + 1), one block of lead for the level-2
  // sweep's left-tail loads and one block past the last set for its
  // right-dependent reads — never wider than the row. The outermost axis is
  // cut to one tile plus its growth; the y/z halo stays R.
  std::array<index, D> sn = n;
  sn[0] = std::min(nx, round_up(blk[0] + 2 * R, B) + 3 * B);
  if constexpr (D > 1) sn[D - 1] = std::min(n[D - 1], blk[D - 1]) + 2 * R + 4;
  const index sw = sn[0];
  const index sh = std::max<index>(R, 1);
  const int nthreads = omp_get_max_threads();
  const std::uint64_t key = std::apply(
      [&](auto... e) { return ws_key(e..., sh, index{nthreads}); }, sn);
  using Pool = std::vector<G>;
  Pool& pool = ws.slot<Pool>(kWsScratchPool, key, [&] {
    Pool p;
    p.reserve(static_cast<std::size_t>(nthreads));
    for (int i = 0; i < nthreads; ++i)
      p.push_back(G(sn, sh, FirstTouch::kNone));
#pragma omp parallel for schedule(static)
    for (int i = 0; i < nthreads; ++i) p[i].zero();
    return p;
  });

  auto pair_adv = [&](const G& in, G& out, const Box<D>& b) {
    G& scr = pool[omp_get_thread_num()];
    Box<D> c;  // level-1 region: b grown by R, clipped to the domain
    for (int d = 0; d < D; ++d) {
      c.lo[d] = std::max<index>(0, b.lo[d] - R);
      c.hi[d] = std::min(n[d], b.hi[d] + R);
    }
    const Box<3> c3 = as_box3(c);
    // Window origin: one block of lead below c's first set, clamped so the
    // window stays inside the row. A window that touches a row end then
    // holds that end's x halo: c.lo == 0 gives org == 0, and c.hi == nx
    // gives org == nx - sw (sw covers c's sets plus the lead block).
    const index org = std::clamp<index>(c.lo[0] / B * B - B, 0, nx - sw);
    // Scratch row holding level-1 row (y, z) of c.
    auto l1_row = [&](index y, index z) -> T* {
      std::array<index, 3> at{0, y, z};
      at[D - 1] -= c.lo[D - 1];
      return scr.row_at(at[1], at[2]) - org;
    };
    // Level +1 (odd, transient) over c into scratch.
    row_walk(in, c, taps, [&](const auto& rp, index y, index z) {
      T* d = l1_row(y, z);
      const T* src = in.row_at(y, z);
      if (c.lo[0] == 0)
        for (index l = 1; l <= R; ++l) d[-l] = src[-l];
      if (c.hi[0] == nx)
        for (index l = 0; l < R; ++l) d[nx + l] = src[nx + l];
      transpose_sweep_row_region<V, R, NR>(rp, d, taps.w, nx, c.lo[0],
                                           c.hi[0]);
    });
    // Level +2 over b into the opposite parity buffer; tap rows outside c
    // are grid halo rows.
    auto l1_src = [&](index y, index z) -> const T* {
      const bool in_c = y >= c3.lo[1] && y < c3.hi[1] && z >= c3.lo[2] &&
                        z < c3.hi[2];
      return in_c ? l1_row(y, z) : in.row_at(y, z);
    };
    row_walk(b, taps, l1_src, [&](const auto& rp, index y, index z) {
      transpose_sweep_row_region<V, R, NR>(rp, out.row_at(y, z), taps.w,
                                           nx, b.lo[0], b.hi[0]);
    });
  };

  block_transpose_grid<T, W>(g);
  const index pairs = steps / 2;
  if (pairs > 0)
    tess_run(g, pairs, blk, std::max<index>(1, bt / 2), 2 * R, ws, pair_adv);
  if (steps % 2 != 0)  // odd tail: one ordinary tiled step
    tess_run(g, 1, blk, 1, R, ws,
             [&](const G& in, G& out, const Box<D>& b) {
               transpose_step_region<V>(in, out, taps, b);
             });
  block_transpose_grid<T, W>(g);
}

/// Split-tiling engine over DLT columns: like tess_engine<1>, but *all*
/// tiles shrink (the domain ends are not physical boundaries — columns 0 and
/// L-1 are coupled through the lane seam) and the seam set includes the
/// wrapped seam at column 0/L, processed as two ranges. adv(in, out, box)
/// advances a Box<1> of columns one unit.
///
/// Both stage loops stay schedule(dynamic): the last tile may be ragged
/// (tile_count rounds up) and tile 0 of the seam stage does the wrapped
/// seam's two disjoint ranges, so per-tile work is NOT homogeneous here —
/// unlike the tessellate engine (see tess.hpp), where the legality bound
/// makes all interior tiles identical and static scheduling measured no
/// worse while saving the dynamic dispatch.
template <typename GridT, typename AdvanceFn>
void split1d_wrap_engine(GridT& A, GridT& B, index domain, index units,
                         index tau, index slope, index blk, AdvanceFn&& adv) {
  const index ntiles = tile_count(domain, blk);
  // Every tile, including a ragged last one, must be wide enough that the
  // inverted seams (and the wrapped seam) never overlap. tau == 1 degenerates
  // to plain full sweeps with no cross-tile dependencies and is always legal.
  const index last_tile = domain - (ntiles - 1) * blk;
  if (tau > 1)
    require_fmt(std::min(blk, last_tile) >= 2 * slope * tau &&
                    domain >= 2 * slope * tau,
                "split tiling: tile/domain too small for tau=", tau);
  index parity = 0;
  auto in_buf = [&](index u) -> const GridT& {
    return ((parity + u) % 2 == 0) ? A : B;
  };
  auto out_buf = [&](index u) -> GridT& {
    return ((parity + u + 1) % 2 == 0) ? A : B;
  };
  auto run = [&](index u, index a, index b) {
    adv(in_buf(u), out_buf(u), Box<1>{{a}, {b}});
  };
  index done = 0;
  while (done < units) {
    const index t = std::min(tau, units - done);
#pragma omp parallel for schedule(dynamic)
    for (index c = 0; c < ntiles; ++c)
      for (index u = 0; u < t; ++u) {
        const index lo = c * blk, hi = std::min(domain, lo + blk);
        const index a = lo + slope * u, b = hi - slope * u;
        if (a < b) run(u, a, b);
      }
#pragma omp parallel for schedule(dynamic)
    for (index c = 0; c < ntiles; ++c)
      for (index u = 1; u < t; ++u) {
        if (c == 0) {  // wrapped seam: both domain ends, same level
          run(u, 0, std::min(domain, slope * u));
          run(u, std::max<index>(0, domain - slope * u), domain);
        } else {
          const index m = c * blk;
          run(u, std::max<index>(0, m - slope * u),
              std::min(domain, m + slope * u));
        }
      }
    parity += t;
    done += t;
  }
  if (parity % 2 != 0) A.swap_storage(B);
}

/// SDSL baseline (Henretty ICS'13): DLT layout + split tiling of one axis,
/// @p split_block units of that axis per tile. 1D splits the DLT columns
/// (wrapped seam engine above); 2D/3D use hybrid tiling — tessellation over
/// the outermost axis with full DLT rows (2D) or planes (3D) per region.
template <typename V, typename G, typename S>
TSV_NOINLINE void sdsl_run(G& g, const S& s, index steps, index split_block,
                           index bt, Workspace& ws, bool stream = false) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  constexpr int R = S::radius;
  constexpr int D = G::kRank;
  require_fmt(g.nx() % W == 0, "SDSL/DLT requires nx % W == 0");
  const TapRows<S> taps(s);
  const Box<D> all = dlt_interior_box<V>(g);
  G& dltA = ws_grid_like(ws, kWsDltA, g);
  dltA.copy_halo_from(g);
  dlt_forward_grid<T, W>(g, dltA);
  G& dltB = ws_grid_like(ws, kWsDltB, g);
  dltB.copy_halo_from(dltA);
  // The split axis is the outermost: x (as DLT columns) in 1D.
  auto adv = [&](const G& in, G& out, const Box<1>& split) {
    Box<D> b = all;
    b.lo[D - 1] = split.lo[0];
    b.hi[D - 1] = split.hi[0];
    dlt_step_region<V>(in, out, taps, b, stream);
  };
  if constexpr (D == 1) {
    // Clamp the temporal range so the inverted seams fit the smallest tile
    // (ragged last tiles would otherwise make seam regions overlap the
    // wrap). The plan only resolves stream=true at bt == 1, where tau clamps
    // to 1 — every sweep is then a full pass with no cross-unit cache reuse.
    const index L = all.hi[0];
    const index ntiles = tile_count(L, split_block);
    const index last_tile = L - (ntiles - 1) * split_block;
    const index tau = std::max<index>(
        1, std::min(bt, std::min(split_block, last_tile) / (2 * R)));
    split1d_wrap_engine(dltA, dltB, L, steps, tau, R, split_block, adv);
  } else {
    tess_engine<1>(dltA, dltB, {all.hi[D - 1]}, {split_block}, steps, bt, R,
                   adv);
  }
  dlt_backward_grid<T, W>(dltA, g);
}

}  // namespace tsv
