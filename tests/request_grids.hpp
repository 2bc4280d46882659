#pragma once
// Salted request grids shared by the scheduler and fault suites: every
// request owns an independent grid whose contents are keyed by a salt, and
// serial_expected() replays the exact plan a gang runs on a fresh copy.

#include <algorithm>
#include <array>
#include <future>
#include <memory>

#include "tsv/tsv.hpp"

namespace tsv {

template <typename T>
T noise(index salt, index lin) {
  return static_cast<T>(0.25 +
                        1e-3 * static_cast<double>((salt * 31 + lin * 7) % 101));
}

inline Options opts(Method m, Tiling t, index steps) {
  Options o;
  o.method = m;
  o.tiling = t;
  o.steps = steps;
  return o;
}

/// Mirrors the scheduler's (= executor's) option normalization so a serial
/// baseline resolves to the exact plan a gang runs.
template <typename T = double>
Options normalized(Options o, int threads_per_gang) {
  o.dtype = dtype_of<T>();
  o.max_threads = o.max_threads > 0 ? std::min(o.max_threads, threads_per_gang)
                                    : threads_per_gang;
  return o;
}

/// A grid of type G with salt-keyed contents (distinct salts = distinct
/// content digests = never coalesced; equal salts = coalescing
/// candidates): 512 cells in 1D, 256 x 6 in 2D, 256 x 6 x 4 in 3D — nx a
/// multiple of W^2 at every compiled width and dtype.
template <typename G>
G salted(index salt) {
  constexpr index kExtents[3][3] = {{512}, {256, 6}, {256, 6, 4}};
  std::array<index, G::kRank> n;
  std::copy_n(kExtents[G::kRank - 1], G::kRank, n.begin());
  G g(n, 1);
  g.fill([salt](auto... c) {
    const index p[] = {c..., 0, 0};  // x, y, z; axes beyond the rank are 0
    return noise<typename G::value_type>(salt,
                                         p[0] + 1000 * p[1] + 100000 * p[2]);
  });
  return g;
}

/// The Table-1 stencil the tests run on a grid of rank D.
template <int D>
StencilSpec spec_of_rank() {
  constexpr StencilKind kKinds[] = {StencilKind::k1d3p, StencilKind::k2d5p,
                                    StencilKind::k3d7p};
  return {.kind = kKinds[D - 1]};
}

/// One request's worth of state: an independent salted grid of type G.
template <typename G = Grid1D<double>>
struct ReqOf {
  std::unique_ptr<G> grid;
  std::future<Scheduler::Result> fut;

  explicit ReqOf(index salt) : grid(std::make_unique<G>(salted<G>(salt))) {}
};
using Req = ReqOf<>;

template <typename G = Grid1D<double>>
G serial_expected(index salt, const Options& o, int threads_per_gang) {
  G g = salted<G>(salt);
  make_plan(shape_of(g), spec_of_rank<G::kRank>(),
            normalized<typename G::value_type>(o, threads_per_gang))
      .execute(g);
  return g;
}

}  // namespace tsv
