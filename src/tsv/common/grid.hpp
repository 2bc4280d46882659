#pragma once
// Row-major grid containers with symmetric halos.
//
// Layout guarantees relied upon by the SIMD kernels:
//  * the first interior element of every unit-stride row is 64-byte aligned;
//  * the x stride between consecutive rows/planes is a multiple of the widest
//    vector length, so aligned row kernels stay aligned on every row.
//
// One class, Grid<T, D>, serves every rank: the transpose layout works on
// unit-stride x rows only, and the y/z axes merely choose which row a kernel
// reads, so the rank matters to row addressing and to nothing else. Every
// whole-grid loop is a walk over rows (for_each_row), the same at every rank.
// Grid1D/Grid2D/Grid3D<T> are aliases of Grid<T, 1..3>.
//
// Halo semantics: halo cells carry the boundary condition. By default
// (Boundary::kDirichlet) they hold user-supplied fixed values the stencil
// drivers never write, so they are constant in time; the other conditions
// (zero, periodic wrap, Neumann mirror) are realized by the plan layer
// writing these same cells via core/halo.hpp — the kernels are identical.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "tsv/common/aligned.hpp"
#include "tsv/common/check.hpp"
#include "tsv/common/cpu.hpp"

namespace tsv {

namespace detail {
template <typename T>
constexpr index align_elems() {
  return static_cast<index>(kAlignment / sizeof(T));
}
}  // namespace detail

/// Half-open per-axis region [lo[d], hi[d]) of a rank-D grid; axis 0 is x.
template <int D>
struct Box {
  std::array<index, D> lo{}, hi{};
};

/// @p b widened to three axes; the axes it lacks become [0, 1).
template <int D>
Box<3> as_box3(const Box<D>& b) {
  Box<3> r{{0, 0, 0}, {1, 1, 1}};
  std::copy_n(b.lo.begin(), D, r.lo.begin());
  std::copy_n(b.hi.begin(), D, r.hi.begin());
  return r;
}

/// Row walk: fn(y, z) for every row of @p b's outer (y, z) ranges — z outer,
/// y inner, axes beyond the rank fixed at 0. The x range is ignored, so a
/// 1D box is one row.
template <int D, typename Fn>
void for_each_row(const Box<D>& b, Fn&& fn) {
  const Box<3> b3 = as_box3(b);
  for (index z = b3.lo[2]; z < b3.hi[2]; ++z)
    for (index y = b3.lo[1]; y < b3.hi[1]; ++y) fn(y, z);
}

/// Rank-D grid over T: interior [0, n[d]) on every axis, halo cells
/// [-halo, 0) and [n[d], n[d] + halo). x is unit-stride, then y, then z.
template <typename T, int D>
class Grid {
  static_assert(D >= 1 && D <= 3, "Grid: rank must be 1, 2 or 3");

 public:
  using value_type = T;
  static constexpr int kRank = D;

  /// Interior extents @p n (x first) with a @p halo-deep rim on every axis.
  Grid(const std::array<index, D>& n, index halo,
       FirstTouch ft = FirstTouch::kSerial)
      : n_(n), halo_(halo) {
    require(halo >= 0 && std::all_of(n.begin(), n.end(),
                                     [](index e) { return e > 0; }),
            "Grid: need extents > 0, halo >= 0");
    constexpr index a = detail::align_elems<T>();
    lead_ = round_up(std::max<index>(halo, 1), a);
    if constexpr (D == 1) {
      buf_ = AlignedBuffer<T>(lead_ + n[0] + lead_, ft);
    } else {
      stride_ = lead_ + round_up(n[0] + std::max<index>(halo, 1), a);
      plane_ = stride_ * (n[1] + 2 * halo);
      const index outer = D == 2 ? stride_ : plane_;
      buf_ = AlignedBuffer<T>(outer * (n[D - 1] + 2 * halo) + lead_, ft);
    }
  }
  Grid(index nx, index halo, FirstTouch ft = FirstTouch::kSerial)
    requires(D == 1)
      : Grid(std::array<index, 1>{nx}, halo, ft) {}
  Grid(index nx, index ny, index halo, FirstTouch ft = FirstTouch::kSerial)
    requires(D == 2)
      : Grid(std::array<index, 2>{nx, ny}, halo, ft) {}
  Grid(index nx, index ny, index nz, index halo,
       FirstTouch ft = FirstTouch::kSerial)
    requires(D == 3)
      : Grid(std::array<index, 3>{nx, ny, nz}, halo, ft) {}

  index nx() const { return n_[0]; }
  index ny() const requires(D >= 2) { return n_[1]; }
  index nz() const requires(D >= 3) { return n_[2]; }
  index halo() const { return halo_; }
  /// Interior extents, x first.
  const std::array<index, D>& extents() const { return n_; }
  /// Distance in elements between (x, y) and (x, y+1).
  index row_stride() const requires(D >= 2) { return stride_; }
  /// Distance in elements between (x, y, z) and (x, y, z+1).
  index plane_stride() const requires(D == 3) { return plane_; }
  /// Elements allocated: interior, halo and alignment padding.
  index storage_size() const { return buf_.size(); }

  /// Pointer to x = 0 of row (y, z), 64-byte aligned; coordinates beyond the
  /// rank are ignored. y and z range over [-halo, n + halo).
  T* row_at(index y, index z) { return buf_.data() + row_offset(y, z); }
  const T* row_at(index y, index z) const {
    return buf_.data() + row_offset(y, z);
  }

  T* x0() requires(D == 1) { return row_at(0, 0); }
  const T* x0() const requires(D == 1) { return row_at(0, 0); }
  T* row(index y) requires(D == 2) { return row_at(y, 0); }
  const T* row(index y) const requires(D == 2) { return row_at(y, 0); }
  T* row(index y, index z) requires(D == 3) { return row_at(y, z); }
  const T* row(index y, index z) const requires(D == 3) {
    return row_at(y, z);
  }

  T& at(index x) requires(D == 1) { return row_at(0, 0)[x]; }
  const T& at(index x) const requires(D == 1) { return row_at(0, 0)[x]; }
  T& at(index x, index y) requires(D == 2) { return row_at(y, 0)[x]; }
  const T& at(index x, index y) const requires(D == 2) {
    return row_at(y, 0)[x];
  }
  T& at(index x, index y, index z) requires(D == 3) { return row_at(y, z)[x]; }
  const T& at(index x, index y, index z) const requires(D == 3) {
    return row_at(y, z)[x];
  }

  /// The outer (y, z) ranges of the rows within @p depth ghost layers of the
  /// interior (depth 0: interior rows; depth halo(): every row).
  Box<D> rows(index depth) const {
    Box<D> b;
    for (int d = 0; d < D; ++d) {
      b.lo[d] = -depth;
      b.hi[d] = n_[d] + depth;
    }
    return b;
  }

  /// Applies f to every cell including halo: f(x), f(x, y) or f(x, y, z),
  /// in storage order (z, then y, then x innermost).
  template <typename F>
  void fill(F&& f) {
    for_each_row(rows(halo_), [&](index y, index z) {
      T* row = row_at(y, z);
      for (index x = -halo_; x < n_[0] + halo_; ++x) {
        if constexpr (D == 1)
          row[x] = f(x);
        else if constexpr (D == 2)
          row[x] = f(x, y);
        else
          row[x] = f(x, y, z);
      }
    });
  }

  /// Copies every halo cell from @p other. Halo-only rows are copied with
  /// one memcpy per row; interior rows copy just their two x-halo segments —
  /// this runs once per Plan::execute to refresh reusable workspace buffers,
  /// so it must cost O(halo), not O(interior).
  void copy_halo_from(const Grid& other) {
    const std::size_t row_bytes =
        static_cast<std::size_t>(n_[0] + 2 * halo_) * sizeof(T);
    const std::size_t side_bytes = static_cast<std::size_t>(halo_) * sizeof(T);
    for_each_row(rows(halo_), [&](index y, index z) {
      T* d = row_at(y, z);
      const T* s = other.row_at(y, z);
      if (!interior_row(y, z)) {
        std::memcpy(d - halo_, s - halo_, row_bytes);
      } else if (halo_ > 0) {
        std::memcpy(d - halo_, s - halo_, side_bytes);
        std::memcpy(d + n_[0], s + n_[0], side_bytes);
      }
    });
  }

  /// Zeroes every cell (interior and halo) on the calling thread.
  void zero() { buf_.zero(); }
  /// Zeroes every cell under an OpenMP static team (NUMA first touch).
  void zero_parallel() { buf_.zero_parallel(); }

  /// O(1) exchange of storage with a same-shaped grid (Jacobi buffer swap).
  void swap_storage(Grid& other) {
    require(n_ == other.n_ && halo_ == other.halo_,
            "swap_storage: shape mismatch");
    buf_.swap(other.buf_);
  }

 private:
  index row_offset(index y, index z) const {
    return lead_ + (D >= 3 ? (z + halo_) * plane_ : 0) +
           (D >= 2 ? (y + halo_) * stride_ : 0);
  }
  bool interior_row(index y, index z) const {
    bool in = true;
    if constexpr (D >= 2) in = y >= 0 && y < n_[1];
    if constexpr (D >= 3) in = in && z >= 0 && z < n_[2];
    return in;
  }

  std::array<index, D> n_;
  index halo_, lead_, stride_ = 0, plane_ = 0;
  AlignedBuffer<T> buf_;
};

template <typename T>
using Grid1D = Grid<T, 1>;
template <typename T>
using Grid2D = Grid<T, 2>;
template <typename T>
using Grid3D = Grid<T, 3>;

/// The whole interior of @p g as a box.
template <typename G>
Box<G::kRank> interior_box(const G& g) {
  return {{}, g.extents()};
}

/// Largest |a-b| over the interior of two grids (used by the test suite).
template <typename T, int D>
T max_abs_diff(const Grid<T, D>& a, const Grid<T, D>& b) {
  T m = 0;
  for_each_row(interior_box(a), [&](index y, index z) {
    const T* pa = a.row_at(y, z);
    const T* pb = b.row_at(y, z);
    for (index x = 0; x < a.nx(); ++x) m = std::max(m, std::abs(pa[x] - pb[x]));
  });
  return m;
}

// ---------------------------------------------------------------------------
// GridRef: the one type-erased grid handle of the request path.
// ---------------------------------------------------------------------------

/// Non-owning reference to a caller grid of any rank and dtype. Built
/// implicitly from any Grid<T, D> (pointer or lvalue). It carries the typed
/// object pointer behind a dtype/rank tag — get<G>() is the only way back to
/// the typed grid — and a byte view of the storage (extents, strides, halo),
/// so whole-grid content work (digest, compare, copy, snapshot) walks rows
/// as bytes at any rank and dtype. Axes beyond the rank have extent 1. The
/// base address is read through the grid on every row() call, never cached:
/// a plan's Jacobi buffer swap (swap_storage) moves a grid's storage while a
/// reference to it is alive.
class GridRef {
 public:
  GridRef() = default;
  template <typename T, int D>
  GridRef(Grid<T, D>* g)  // NOLINT: implicit by design
      : obj_(g),
        base_(&base_of<T, D>),
        dtype_(dtype_of<T>()),
        rank_(D),
        elem_(sizeof(T)) {
    if (g == nullptr) return;
    std::copy_n(g->extents().begin(), D, n_.begin());
    halo_ = g->halo();
    if constexpr (D >= 2) y_stride_ = g->row_stride() * elem_;
    if constexpr (D >= 3) z_stride_ = g->plane_stride() * elem_;
  }
  template <typename T, int D>
  GridRef(Grid<T, D>& g)  // NOLINT: implicit by design
      : GridRef(&g) {}

  /// The referenced grid when it is a G, nullptr otherwise.
  template <typename G>
  G* get() const {
    return dtype_ == dtype_of<typename G::value_type>() && rank_ == G::kRank
               ? static_cast<G*>(obj_)
               : nullptr;
  }

  Dtype dtype() const { return dtype_; }
  int rank() const { return rank_; }
  index nx() const { return n_[0]; }
  index ny() const { return n_[1]; }
  index nz() const { return n_[2]; }
  index halo() const { return halo_; }

  /// Bytes of one row including its two x halos.
  std::size_t row_bytes() const {
    return static_cast<std::size_t>(n_[0] + 2 * halo_) * elem_;
  }
  /// Byte address of x = -halo in row (y, z).
  std::byte* row(index y, index z) const {
    return base_(obj_) + y * y_stride_ + z * z_stride_ - halo_ * elem_;
  }
  /// fn(y, z) for every row the grid holds, halo rows included, in storage
  /// order.
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    const Box<3> b{{0, rank_ >= 2 ? -halo_ : 0, rank_ >= 3 ? -halo_ : 0},
                   {1, rank_ >= 2 ? n_[1] + halo_ : 1,
                    rank_ >= 3 ? n_[2] + halo_ : 1}};
    tsv::for_each_row(b, fn);
  }

  /// Same dtype, rank, extents and halo.
  friend bool same_geometry(const GridRef& a, const GridRef& b) {
    return a.dtype_ == b.dtype_ && a.rank_ == b.rank_ && a.n_ == b.n_ &&
           a.halo_ == b.halo_;
  }

 private:
  /// Byte address of x = 0 in row (0, 0) of the Grid<T, D> at @p g.
  template <typename T, int D>
  static std::byte* base_of(void* g) {
    return reinterpret_cast<std::byte*>(
        static_cast<Grid<T, D>*>(g)->row_at(0, 0));
  }

  void* obj_ = nullptr;
  std::byte* (*base_)(void*) = nullptr;
  Dtype dtype_ = Dtype::kF64;
  int rank_ = 1;
  index elem_ = 0;
  std::array<index, 3> n_{1, 1, 1};
  index halo_ = 0;
  index y_stride_ = 0, z_stride_ = 0;  ///< bytes
};

}  // namespace tsv
