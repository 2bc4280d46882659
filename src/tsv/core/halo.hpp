#pragma once
// Boundary-condition ghost fills (the halo-exchange layer).
//
// Every grid already carries ghost cells (the halo) and every kernel in the
// library reads them for out-of-domain taps — that is how the seed
// implemented frozen Dirichlet boundaries with branch-free interior loops.
// This header adds the fills that make the other Boundary conditions work
// with the SAME kernels: fill_ghosts() writes the ghost cells of the
// radius-deep rim from the interior (periodic wrap, Neumann mirror) or with
// zeros, in O(halo) memcpy/loop segments — never an interior sweep.
//
// Axis order and corners: axes are filled x, then y, then z. The x fill
// covers interior rows only; the y fill copies whole extended rows
// (including the just-filled x ghosts) into the ghost rows; the z fill
// copies whole extended planes. Corner/edge ghost cells therefore get the
// standard sequential-exchange values (e.g. the periodic diagonal wrap),
// and because the scalar reference oracle (kernels/reference.hpp) uses this
// very function, optimized methods and the oracle always read identical
// ghost values.
//
// Execution model (see TypedPlan::execute in core/plan.hpp): kDirichlet
// axes are never touched; kZero axes are filled once per execute; plans
// with a kPeriodic or kNeumann axis run step-at-a-time with a fill_ghosts
// refresh between steps, because those ghosts depend on the evolving
// interior. Methods that fuse several time steps per driver call (the
// 2-step unroll&jam scheme, temporal tiling with bt > 1) degrade gracefully
// to their single-step path between refreshes — resolve_options reports the
// temporal block that actually executes.

#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

#include "tsv/common/grid.hpp"
#include "tsv/core/options.hpp"

namespace tsv {

/// Every Boundary enumerator, for exhaustive sweeps (registry-style).
const std::vector<Boundary>& all_boundaries();

/// Name -> enum inverse of boundary_name(); nullopt for unknown spellings.
std::optional<Boundary> boundary_from_name(std::string_view name);

/// Reason the boundary spec cannot run on this shape (static storage), or
/// nullptr when it is valid. Wrap/mirror fills read @p radius interior
/// cells next to each face, so a periodic or Neumann axis needs an extent
/// of at least the stencil radius. Used by resolve_options.
const char* boundary_violation(int rank, index nx, index ny, index nz,
                               int radius, const BoundarySpec& bc);

namespace detail {

/// Row-granular ghost copies: the y/z-axis fills move whole extended rows,
/// so they are straight memcpy/memset segments (IEEE zero is all-zero
/// bytes).
template <typename T>
void copy_row_segment(T* dst, const T* src, index n) {
  std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(T));
}

template <typename T>
void zero_row_segment(T* dst, index n) {
  std::memset(dst, 0, static_cast<std::size_t>(n) * sizeof(T));
}

/// x-axis fill for one unit-stride row: the ghost cells at [-r, 0) and
/// [nx, nx + r) around the interior [0, nx). Element loops, O(r).
template <typename T>
void fill_row_x(T* row, index nx, int r, Boundary b) {
  switch (b) {
    case Boundary::kDirichlet:
      break;
    case Boundary::kZero:
      for (int d = 1; d <= r; ++d) row[-d] = row[nx - 1 + d] = T(0);
      break;
    case Boundary::kPeriodic:
      for (int d = 1; d <= r; ++d) {
        row[-d] = row[nx - d];
        row[nx - 1 + d] = row[d - 1];
      }
      break;
    case Boundary::kNeumann:
      for (int d = 1; d <= r; ++d) {
        row[-d] = row[d - 1];
        row[nx - 1 + d] = row[nx - d];
      }
      break;
  }
}

/// Source index (in the interior) a ghost layer at distance @p d outside a
/// face copies from, for the axis-granular (row/plane) fills. Low face:
/// ghost index -d; high face: ghost index n-1+d.
inline index ghost_src_lo(index n, int d, Boundary b) {
  return b == Boundary::kPeriodic ? n - d : d - 1;  // wrap : mirror
}
inline index ghost_src_hi(index n, int d, Boundary b) {
  return b == Boundary::kPeriodic ? d - 1 : n - d;  // wrap : mirror
}

/// Pointer to the first cell of row (y, z) once coordinate @p c replaces
/// the row's coordinate on @p axis (axis 0 moves along the row).
template <typename G>
auto* slab_row(G& g, int axis, index c, index y, index z) {
  std::array<index, 3> p{0, y, z};
  p[static_cast<std::size_t>(axis)] = c;
  return g.row_at(p[1], p[2]) + p[0];
}

/// Calls fn(dst_cells, src_cells, n) for every contiguous run of slab
/// @p c_dst of @p dst and slab @p c_src of @p src on @p axis. A slab is
/// every cell at that axis coordinate whose lower axes span their r-deep
/// extended range and whose higher axes span the interior: on x, one cell
/// per interior row; on y or z, extended rows of nx + 2r cells. That is the
/// unit the sequential x -> y -> z fill order moves, so a slab copied
/// between two same-shaped grids carries its corner and edge ghosts along.
template <typename G, typename Fn>
void slab_walk(G& dst, index c_dst, const G& src, index c_src, int axis,
               int r, Fn&& fn) {
  Box<G::kRank> rows = interior_box(dst);
  for (int a = 1; a < axis; ++a) {
    rows.lo[a] = -r;
    rows.hi[a] += r;
  }
  if (axis > 0) rows.hi[axis] = 1;  // the axis coordinate comes from c
  const index x = axis == 0 ? 0 : -r;
  const index n = axis == 0 ? 1 : dst.nx() + 2 * r;
  for_each_row(rows, [&](index y, index z) {
    fn(slab_row(dst, axis, c_dst, y, z) + x,
       slab_row(src, axis, c_src, y, z) + x, n);
  });
}

/// Fills the r-deep ghost strip outside the low (high=false) or high face
/// of @p axis per boundary @p b: zeros, or the wrap/mirror slabs of the
/// interior. kDirichlet is a no-op.
template <typename G>
void fill_face(G& g, int axis, Boundary b, int r, bool high) {
  if (b == Boundary::kDirichlet) return;
  const index n = g.extents()[static_cast<std::size_t>(axis)];
  for (int d = 1; d <= r; ++d) {
    const index dst = high ? n - 1 + d : -d;
    const index src = high ? ghost_src_hi(n, d, b) : ghost_src_lo(n, d, b);
    slab_walk(g, dst, g, src, axis, r,
              [&](auto* to, const auto* from, index k) {
                if (b == Boundary::kZero)
                  zero_row_segment(to, k);
                else
                  copy_row_segment(to, from, k);
              });
  }
}

}  // namespace detail

/// Fills ONE face of the grid's outermost axis (x for 1D, y for 2D, z for
/// 3D): the radius-deep ghost strip outside the low (high=false) or high
/// (high=true) face, per boundary @p b. kDirichlet is a no-op. The copied
/// strips are whole extended rows/planes, so inner-axis ghosts must already
/// be filled — the face then inherits the same sequential-exchange corner
/// semantics as fill_ghosts. The sharded execution path (core/shard.hpp)
/// uses this for the PHYSICAL faces of its split axis; internal shard faces
/// are neighbor-interior copies instead (periodic wraps ride the same ring
/// exchange, so they never come through here).
template <typename T, int D>
void fill_ghost_face(Grid<T, D>& g, Boundary b, int radius, bool high) {
  detail::fill_face(g, D - 1, b, radius, high);
}

/// Fills the radius-@p radius ghost rim of @p g according to @p bc (see the
/// header comment for semantics and corner handling). kDirichlet axes are
/// left untouched. The grid's halo must be >= radius (plan-validated).
template <typename T, int D>
void fill_ghosts(Grid<T, D>& g, const BoundarySpec& bc, int radius) {
  if (bc.x != Boundary::kDirichlet)
    for_each_row(interior_box(g), [&](index y, index z) {
      detail::fill_row_x(g.row_at(y, z), g.nx(), radius, bc.x);
    });
  // Ghost rows/planes copy whole extended rows [-r, nx + r) (and, for z,
  // every extended row of the plane), so corners and edges inherit the
  // fills of the lower axes.
  for (int a = 1; a < D; ++a) {
    detail::fill_face(g, a, bc.at(a), radius, /*high=*/false);
    detail::fill_face(g, a, bc.at(a), radius, /*high=*/true);
  }
}

}  // namespace tsv
