#pragma once
// Tessellate tiling engine (paper §3.4; Yuan SC'17).
//
// Space-time is covered by triangles (stage 0) and inverted triangles
// (stage 1) per axis; a D-dimensional domain uses the tensor product of the
// per-axis shapes, with one stage per subset of axes using the inverted
// profile, processed in subset order (docs/METHODS.md, "Tessellate stage
// order"). All tiles within a stage are independent and run under `omp
// parallel for`.
//
// The engine is generic over the *advance* callback, which moves a region
// forward one time unit between the two Jacobi parity buffers. A unit is one
// time step for ordinary methods (slope = r) or one two-step pair for the
// unroll-and-jam scheme (slope = 2r) — the engine is agnostic.
//
// Boundary tiles do not shrink at physical domain edges (Dirichlet halo
// values are valid at every time level), making boundary triangles
// trapezoids; the seams between tiles are filled by inverted triangles.

#include <omp.h>

#include <array>
#include <utility>

#include "tsv/common/check.hpp"
#include "tsv/common/grid.hpp"
#include "tsv/core/workspace.hpp"

namespace tsv {

/// Tessellation tile extents per axis (x, y, z); a rank-D driver reads the
/// first D and ignores the rest.
using Blocks = std::array<index, 3>;

/// Half-open range of a (possibly boundary-extended) triangle tile at unit u.
inline std::pair<index, index> tri_range(index c, index ntiles, index n,
                                         index blk, index slope, index u) {
  const index lo = c * blk;
  const index hi = std::min(n, lo + blk);
  const index a = (c == 0) ? 0 : lo + slope * u;
  const index b = (c == ntiles - 1) ? n : hi - slope * u;
  return {a, std::min(b, n)};
}

/// Half-open range of the inverted triangle at seam m, unit u (empty at u=0).
inline std::pair<index, index> inv_range(index m, index n, index slope,
                                         index u) {
  return {std::max<index>(0, m - slope * u), std::min(n, m + slope * u)};
}

inline index tile_count(index n, index blk) { return (n + blk - 1) / blk; }

/// Validates a tiling configuration for one axis.
inline void check_tile_dim(index n, index blk, index slope, index tau,
                           const char* dim) {
  require_fmt(blk > 0 && tau > 0, "tess: block and time range must be > 0 (",
              dim, ")");
  if (tile_count(n, blk) > 1)
    require_fmt(blk >= 2 * slope * tau, "tess: block ", blk, " in ", dim,
                " must be >= 2*slope*tau = ", 2 * slope * tau,
                " (shrinking triangles must not invert)");
}

/// Advances @p units time units of the D-axis domain [0, n) tiled by @p blk;
/// A holds even-parity units, B odd. The result is guaranteed to end in A.
/// adv(in, out, box) advances the Box<D> one unit.
///
/// Stage `mask` inverts the axes whose bit is set (bit d = axis d). Each
/// stage's tiles are flattened row-major — axis 0 outermost, the iteration
/// order of a collapse(D) nest over the tile axes — so a static schedule
/// hands every thread the same contiguous tile run in every time block.
///
/// Static schedule on purpose: the legality bound (blk >= 2*slope*tau)
/// makes every interior tile's work identical at each unit, and the boundary
/// trapezoids differ by at most slope*tau cells — so there is nothing for a
/// dynamic scheduler to balance. Static dispatch drops the per-tile queue
/// traffic and keeps the tile->thread mapping stable across time blocks,
/// which is what the workspace first-touch relies on for NUMA locality.
/// (The ragged-tile split engine in tiling/tiled.hpp is the one place
/// dynamic stays.)
template <int D, typename GridT, typename AdvanceFn>
void tess_engine(GridT& A, GridT& B, const std::array<index, D>& n,
                 const std::array<index, D>& blk, index units, index tau,
                 index slope, AdvanceFn&& adv) {
  static constexpr const char* kAxis[] = {"x", "y", "z"};
  std::array<index, D> cnt;
  for (int d = 0; d < D; ++d) {
    check_tile_dim(n[d], blk[d], slope, tau, kAxis[d]);
    cnt[d] = tile_count(n[d], blk[d]);
  }
  index parity = 0;
  auto in_buf = [&](index u) -> const GridT& {
    return ((parity + u) % 2 == 0) ? A : B;
  };
  auto out_buf = [&](index u) -> GridT& {
    return ((parity + u + 1) % 2 == 0) ? A : B;
  };

  index done = 0;
  while (done < units) {
    const index t = std::min(tau, units - done);
    for (int mask = 0; mask < (1 << D); ++mask) {
      std::array<index, D> per;  // tiles (or seams) per axis in this stage
      index tiles = 1;
      for (int d = 0; d < D; ++d) {
        per[d] = (mask >> d & 1) ? cnt[d] - 1 : cnt[d];
        tiles *= per[d];
      }
      if (tiles == 0) continue;
      const index u0 = (mask == 0) ? 0 : 1;
#pragma omp parallel for schedule(static)
      for (index f = 0; f < tiles; ++f) {
        std::array<index, D> tc;  // tile coordinate, axis D-1 fastest
        for (index d = D - 1, rest = f; d >= 0; --d) {
          tc[d] = rest % per[d];
          rest /= per[d];
        }
        for (index u = u0; u < t; ++u) {
          Box<D> box;
          bool live = true;
          for (int d = 0; d < D; ++d) {
            const auto r = (mask >> d & 1)
                               ? inv_range((tc[d] + 1) * blk[d], n[d], slope, u)
                               : tri_range(tc[d], cnt[d], n[d], blk[d], slope,
                                           u);
            box.lo[d] = r.first;
            box.hi[d] = r.second;
            live = live && r.first < r.second;
          }
          if (live) adv(in_buf(u), out_buf(u), box);
        }
      }
    }
    parity += t;
    done += t;
  }
  if (parity % 2 != 0) A.swap_storage(B);
}

/// Tessellate counterpart of jacobi_run: advances @p g by @p units units of
/// slope @p slope over its whole interior, tiled by the first G::kRank
/// entries of @p blk. The parity buffer comes from @p ws; only its halo is
/// refreshed (every unit rewrites a region's interior before reading it).
template <typename G, typename AdvanceFn>
void tess_run(G& g, index units, const Blocks& blk, index tau, index slope,
              Workspace& ws, AdvanceFn&& adv) {
  constexpr int D = G::kRank;
  G& tmp = ws_grid_like(ws, kWsTmpGrid, g);
  tmp.copy_halo_from(g);
  std::array<index, D> b;
  std::copy_n(blk.begin(), D, b.begin());
  tess_engine<D>(g, tmp, g.extents(), b, units, tau, slope, adv);
}

}  // namespace tsv
