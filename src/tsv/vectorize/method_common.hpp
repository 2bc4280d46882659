#pragma once
// Helpers shared by the vectorization methods.

#include <array>
#include <utility>

#include "tsv/common/grid.hpp"
#include "tsv/core/workspace.hpp"
#include "tsv/kernels/stencil.hpp"
#include "tsv/simd/shift.hpp"
#include "tsv/simd/vec.hpp"

namespace tsv {

/// Element type a vector kernel computes in (the dtype the plan resolved).
template <typename V>
using vec_value_t = typename V::value_type;

/// Compile-time counted loop: static_for<0, N>([&]<int I>() { ... }).
///
/// Deliberately flat (one fold expression, no recursion): a recursive
/// formulation creates an N-deep call chain whose inlining GCC may abandon
/// under unit-growth pressure, at which point the lambda's by-reference
/// captures (typically Vec register arrays) get materialized on the stack
/// and every hot kernel built on this helper slows down ~2x.
template <int Begin, int End, typename F>
TSV_ALWAYS_INLINE constexpr void static_for(F&& f) {
  if constexpr (Begin < End) {
    [&]<int... I>(std::integer_sequence<int, I...>) TSV_ALWAYS_INLINE_LAMBDA {
      (f.template operator()<Begin + I>(), ...);
    }(std::make_integer_sequence<int, End - Begin>{});
  }
}

/// Centered tap array for a stencil row: result[dx + R] is the weight at
/// x-offset dx, zero where the row has no tap. Lets kernels unroll the tap
/// loop at compile time and skip structural zeros at run time.
template <int R, typename Row>
std::array<typename Row::value_type, 2 * R + 1> padded_taps(const Row& r) {
  std::array<typename Row::value_type, 2 * R + 1> w{};
  for (int dx = r.xlo; dx <= r.xhi; ++dx) w[dx + R] = r.w[dx - r.xlo];
  return w;
}

/// Compile-time capacity of a descriptor's tap-row table: the row count of
/// the compiled 2D/3D descriptors, 1 for any 1D stencil (its taps form a
/// single row at dy = dz = 0), and the radius-derived bound for the lowered
/// generic descriptors, whose row count is only known at run time.
template <typename S>
constexpr int tap_row_capacity() {
  if constexpr (S::dim == 1)
    return 1;
  else if constexpr (requires { S::nrows; })
    return S::nrows;
  else if constexpr (S::dim == 2)
    return 2 * S::radius + 1;
  else
    return (2 * S::radius + 1) * (2 * S::radius + 1);
}

/// A stencil as the kernels consume it: per tap row the padded weights
/// (w[r][dx + R]) and the row offset (dy[r], dz[r]). Built once per driver
/// and shared by every region and row the driver sweeps.
template <typename S>
struct TapRows {
  using T = typename S::value_type;
  static constexpr int R = S::radius;
  static constexpr int kCap = tap_row_capacity<S>();
  /// Row count fixed at compile time (everything but the lowered generic
  /// 2D/3D descriptors): count() is then a constant the row loops unroll on.
  static constexpr bool kFixed = S::dim == 1 || requires { S::nrows; };

  std::array<std::array<T, 2 * R + 1>, kCap> w{};
  std::array<int, kCap> dy{}, dz{};
  int n = 0;

  explicit TapRows(const S& s) {
    if constexpr (S::dim == 1) {
      w[0] = s.w;
      n = 1;
    } else {
      for (const auto& row : s.rows) {
        w[n] = padded_taps<R>(row);
        dy[n] = row.dy;
        if constexpr (S::dim == 3) dz[n] = row.dz;
        ++n;
      }
    }
  }

  constexpr int count() const {
    if constexpr (kFixed)
      return kCap;
    else
      return n;
  }
};

/// Row walk: for every output row (y, z) of @p b — z outer, y inner, absent
/// axes 0 — hands @p fn the tap-row pointers rp[r] = src(y + dy[r], z +
/// dz[r]) and the row coordinates: fn(rp, y, z). @p src maps row
/// coordinates to an input row pointer (a grid, or a scratch-aware
/// resolver). The x range b.lo[0]..b.hi[0] is the callback's business.
template <int D, typename S, typename Src, typename Fn>
TSV_ALWAYS_INLINE void row_walk(const Box<D>& b, const TapRows<S>& taps,
                                Src&& src, Fn&& fn) {
  using T = typename S::value_type;
  const Box<3> b3 = as_box3(b);
  for (index z = b3.lo[2]; z < b3.hi[2]; ++z)
    for (index y = b3.lo[1]; y < b3.hi[1]; ++y) {
      std::array<const T*, TapRows<S>::kCap> rp;
      for (int r = 0; r < taps.count(); ++r)
        rp[r] = src(y + taps.dy[r], z + taps.dz[r]);
      fn(rp, y, z);
    }
}

/// row_walk over the input grid @p in.
template <typename G, typename S, typename Fn>
TSV_ALWAYS_INLINE void row_walk(const G& in, const Box<G::kRank>& b,
                                const TapRows<S>& taps, Fn&& fn) {
  row_walk(b, taps, [&](index y, index z) { return in.row_at(y, z); },
           fn);
}

/// Runs @p step (in, out) @p steps times with buffer swapping; the result
/// lands back in @p g. The parity buffer lives in @p ws under @p slot, so
/// steady-state runs are allocation-free. Only the halo is refreshed from
/// @p g — every step writes the whole interior before reading it, so stale
/// interior contents are never observed. @p step must leave halo cells
/// alone.
template <typename Grid, typename StepFn>
void jacobi_run(Grid& g, index steps, Workspace& ws, int slot, StepFn&& step) {
  if (steps <= 0) return;
  Grid& tmp = ws_grid_like(ws, slot, g);
  tmp.copy_halo_from(g);
  for (index t = 0; t < steps; ++t) {
    step(std::as_const(g), tmp);
    g.swap_storage(tmp);
  }
}

}  // namespace tsv
