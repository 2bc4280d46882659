#pragma once
// Sharded grids: domain decomposition along the outermost axis.
//
// A ShardedGrid<G> splits one logical grid into `count` contiguous slabs
// along the OUTERMOST axis (x for 1D, y for 2D, z for 3D — the only axis
// whose slabs are whole unit-stride rows/planes, so every per-row layout
// transform the kernels rely on sees exactly the data it would see in the
// monolithic grid). Each shard is a full Grid with its own radius-deep
// ghost rim; the ghost strips on the two split faces are by construction
// either
//
//   * INTERNAL faces — refreshed every step by copying the neighboring
//     shard's interior edge (exchange_shard_ghosts); a periodic split axis
//     wraps the same copies around the ring, or
//   * PHYSICAL faces — the global domain boundary, filled by the same
//     machinery the monolithic plan uses (fill_ghosts for the non-split
//     axes, fill_ghost_face for the split faces), so Dirichlet halos stay
//     frozen and zero/Neumann faces get bit-identical values.
//
// The exchange copies whole EXTENDED rows/planes (interior plus the
// inner-axis ghost rim, which the neighbor filled first), reproducing the
// sequential x -> y -> z fill order of core/halo.hpp exactly: every corner
// and edge ghost of every shard holds the same bits the monolithic
// fill_ghosts would have written. That is what makes sharded execution
// bit-identical to the monolithic plan (tests/test_shard.cpp pins this).
//
// ShardedPlan (core/plan.hpp) owns the step loop and drives these fills as
// parallel waves over Executor gangs; this header owns the geometry and the
// per-shard copy bodies.

#include <vector>

#include "tsv/common/grid.hpp"
#include "tsv/core/halo.hpp"
#include "tsv/core/options.hpp"

namespace tsv {

/// How to decompose a grid into shards and how to place them.
struct ShardSpec {
  /// Split axis: -1 selects the outermost axis of the grid's rank (x for
  /// 1D, y for 2D, z for 3D). An explicit axis must BE that outermost axis
  /// (0-based: 0=x, 1=y, 2=z) — inner axes would break the unit-stride row
  /// layout the vector kernels transform, and are rejected.
  int axis = -1;
  /// Number of shards; 0 = one per logical core, clamped so every shard
  /// keeps at least one interior slab.
  int count = 0;
  /// Cap on each shard plan's OpenMP team (Options::max_threads). The
  /// default 1 runs every shard single-threaded — pure shard-level
  /// parallelism, one shard per executor gang; raise it when gangs span
  /// several cores. 0 leaves the plan's own resolution uncapped.
  int threads_per_shard = 1;
  /// First-touch policy for the per-shard buffers (NUMA placement: with
  /// kParallel each shard's pages are touched by the team that computes
  /// it).
  FirstTouch first_touch = FirstTouch::kSerial;
};

/// Resolved decomposition: concrete axis/count plus each shard's base
/// offset and extent along the split axis. Extents are as even as possible
/// (the remainder goes to the leading shards, one slab each).
struct ShardLayout {
  int axis = 0;
  int count = 1;
  std::vector<index> base;    ///< global offset of shard i's first slab
  std::vector<index> extent;  ///< slabs of shard i (>= 1)
};

/// Resolves @p spec against a rank-@p rank grid whose outermost-axis extent
/// is @p outer. Throws std::invalid_argument for a non-outermost axis or a
/// count the extent cannot satisfy. Defined in shard.cpp.
ShardLayout shard_layout(int rank, index outer, const ShardSpec& spec);

/// Reason the layout cannot run a radius-@p radius stencil (static
/// storage), or nullptr when it can. The exchange copies radius slabs of
/// neighbor interior into each internal face, so every shard extent must be
/// >= radius. Used by ShardedPlan validation. Defined in shard.cpp.
const char* shard_violation(const ShardLayout& layout, int radius);

/// One logical grid stored as per-shard subgrids (see the header comment).
/// G is a Grid<T, D>. The sharded grid never aliases the monolithic one:
/// scatter()/gather() copy data in and out explicitly.
template <typename G>
class ShardedGrid {
 public:
  using value_type = typename G::value_type;
  static constexpr int kRank = G::kRank;
  /// The split axis: the outermost one.
  static constexpr int kAxis = kRank - 1;

  /// Decomposes the geometry of @p like (extents + halo; its data is not
  /// read — use scatter()). Throws std::invalid_argument on a bad spec.
  ShardedGrid(const G& like, const ShardSpec& spec)
      : n_(like.extents()), halo_(like.halo()) {
    layout_ = shard_layout(kRank, n_[kAxis], spec);
    shards_.reserve(static_cast<std::size_t>(layout_.count));
    for (int i = 0; i < layout_.count; ++i) {
      auto e = n_;
      e[kAxis] = layout_.extent[static_cast<std::size_t>(i)];
      shards_.emplace_back(e, halo_, spec.first_touch);
    }
  }

  int shards() const { return layout_.count; }
  const ShardLayout& layout() const { return layout_; }
  G& shard(int i) { return shards_[static_cast<std::size_t>(i)]; }
  const G& shard(int i) const { return shards_[static_cast<std::size_t>(i)]; }

  /// Global extents and halo of the logical grid (ny/nz are 1 below their
  /// rank).
  index nx() const { return n_[0]; }
  index ny() const {
    if constexpr (kRank >= 2) return n_[1];
    return 1;
  }
  index nz() const {
    if constexpr (kRank >= 3) return n_[2];
    return 1;
  }
  index halo() const { return halo_; }

  /// Copies @p src (same geometry as the prototype) into the shards,
  /// INCLUDING each shard's full halo-deep ghost rim: internal-face ghosts
  /// land on neighbor interior (refreshed by the exchange anyway) and
  /// physical-face ghosts inherit src's halo — which is how frozen
  /// Dirichlet boundary values enter the shards.
  void scatter(const G& src) {
    check_geometry(src, "ShardedGrid::scatter");
    const index h = halo_;
    for (int i = 0; i < layout_.count; ++i) {
      G& d = shards_[static_cast<std::size_t>(i)];
      const index b = layout_.base[static_cast<std::size_t>(i)];
      for_each_row(d.rows(h), [&](index y, index z) {
        detail::copy_row_segment(d.row_at(y, z) - h,
                                 shifted_row(src, b, y, z) - h,
                                 d.nx() + 2 * h);
      });
    }
  }

  /// Copies every shard's interior back into @p dst (ghosts untouched).
  void gather(G& dst) const {
    check_geometry(dst, "ShardedGrid::gather");
    for (int i = 0; i < layout_.count; ++i) {
      const G& s = shards_[static_cast<std::size_t>(i)];
      const index b = layout_.base[static_cast<std::size_t>(i)];
      for_each_row(interior_box(s), [&](index y, index z) {
        detail::copy_row_segment(shifted_row(dst, b, y, z), s.row_at(y, z),
                                 s.nx());
      });
    }
  }

  /// Fills shard @p i's boundary ghosts: the non-split axes via fill_ghosts
  /// (exactly the monolithic fills — every shard spans those axes fully),
  /// then the PHYSICAL split faces of the first/last shard via
  /// fill_ghost_face, after the inner axes so the face strips inherit fresh
  /// corner values. Periodic split faces are left to the ring exchange;
  /// Dirichlet faces stay frozen (scatter installed them). Touches only
  /// shard i — safe to run for all shards concurrently.
  void fill_shard_ghosts(int i, const BoundarySpec& bc, int radius) {
    BoundarySpec inner = bc;
    inner.at(kAxis) = Boundary::kDirichlet;
    G& g = shards_[static_cast<std::size_t>(i)];
    fill_ghosts(g, inner, radius);
    const Boundary b = bc.at(kAxis);
    if (b == Boundary::kZero || b == Boundary::kNeumann) {
      if (i == 0) fill_ghost_face(g, b, radius, /*high=*/false);
      if (i == layout_.count - 1) fill_ghost_face(g, b, radius, /*high=*/true);
    }
  }

  /// Refreshes shard @p i's split-axis ghost strips from its neighbors'
  /// interior edges: radius extended rows/planes per internal face, plus
  /// the ring wrap when the split axis is periodic. Reads only neighbor
  /// interiors and writes only shard i's own ghosts, so all shards may
  /// exchange concurrently between two fill waves.
  void exchange_shard_ghosts(int i, const BoundarySpec& bc, int radius) {
    const int n = layout_.count;
    const bool wrap = bc.at(kAxis) == Boundary::kPeriodic;
    if (i > 0)
      copy_split_face(i, i - 1, /*high=*/false, radius);
    else if (wrap)
      copy_split_face(i, n - 1, /*high=*/false, radius);
    if (i < n - 1)
      copy_split_face(i, i + 1, /*high=*/true, radius);
    else if (wrap)
      copy_split_face(i, 0, /*high=*/true, radius);
  }

 private:
  /// Row (y, z) of a shard whose split-axis base is @p b, addressed in the
  /// monolithic grid @p g.
  template <typename Any>
  static auto* shifted_row(Any& g, index b, index y, index z) {
    std::array<index, 3> p{0, y, z};
    p[kAxis] += b;
    return g.row_at(p[1], p[2]) + p[0];
  }

  void check_geometry(const G& g, const char* who) const {
    require(g.extents() == n_ && g.halo() == halo_,
            std::string(who) + ": grid does not match the sharded geometry");
  }

  /// Copies the low (high=false) or high ghost strip of shard @p dst_i from
  /// the facing interior edge of shard @p src_i. The strips are EXTENDED
  /// rows/planes (width nx + 2*radius), so the neighbor's inner-axis ghost
  /// fill rides along — identical corner bits to the monolithic fill order.
  void copy_split_face(int dst_i, int src_i, bool high, int radius) {
    G& d = shards_[static_cast<std::size_t>(dst_i)];
    const G& s = shards_[static_cast<std::size_t>(src_i)];
    const index de = layout_.extent[static_cast<std::size_t>(dst_i)];
    const index se = layout_.extent[static_cast<std::size_t>(src_i)];
    for (int k = 1; k <= radius; ++k)
      detail::slab_walk(d, high ? de - 1 + k : -k, s, high ? k - 1 : se - k,
                        kAxis, radius, [](auto* to, const auto* from, index n) {
                          detail::copy_row_segment(to, from, n);
                        });
  }

  std::array<index, kRank> n_;
  index halo_;
  ShardLayout layout_;
  std::vector<G> shards_;
};

}  // namespace tsv
