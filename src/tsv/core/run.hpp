#pragma once
// Source-compatible one-shot entry point: plan + execute in one call.
//
//   tsv::Grid1D<double> g(nx, /*halo=*/1);
//   g.fill(...);
//   tsv::run(g, tsv::make_1d3p(), {.method = tsv::Method::kTransposeUJ,
//                                  .tiling = tsv::Tiling::kTessellate,
//                                  .steps = 1000, .bx = 2048, .bt = 128});
//
// run() is a thin wrapper over the plan engine (core/plan.hpp): it builds a
// Plan for the grid's shape — validating once against the capability
// registry and resolving ISA/threads/blocks — and executes it. Services
// that execute the same configuration repeatedly should call make_plan()
// once and reuse the Plan instead.
//
// Untiled runs are single-threaded by design (the paper's block-free
// experiments are sequential; multicore execution always goes through a
// tiling framework). Tiled runs use OpenMP with `options.threads` threads.

#include "tsv/core/plan.hpp"

namespace tsv {

/// Advances @p g by `o.steps` Jacobi steps of stencil @p s using the selected
/// method / tiling / ISA / boundary conditions. The result ends in @p g
/// (under the default all-Dirichlet boundary the halo is left untouched;
/// see core/halo.hpp for the other conditions). Throws tsv::ConfigError (a
/// std::invalid_argument) on invalid configurations, including
/// layout-divisibility violations. The element type follows the
/// grid/stencil pair (double by default, float for Grid1D<float> +
/// make_1d3p<float>() and friends).
template <typename T, int D, typename S>
  requires(S::dim == D && std::is_same_v<typename S::value_type, T>)
void run(Grid<T, D>& g, const S& s, const Options& o) {
  make_plan(shape_of(g), s, o).execute(g);
}

}  // namespace tsv
