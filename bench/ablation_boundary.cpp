// Ablation D (paper §3.4, Fig. 5(d)) — cost of tile-boundary handling in the
// tiled transpose scheme.
//
// Inside a tessellation tile the update range shrinks/expands by r cells per
// step, so the vector sets at the region rims are partial. They run through
// the same vector kernel as the interior sets; only their stores are masked,
// with closed-form per-vector lane masks (the cells of one vector inside a
// range form one contiguous lane run). What rims still cost is geometric:
// they compute whole W²-cell sets, so a region of w cells computes up to
// w + 2W² - 2 of them.
//
// 2D section: the headline configuration (2d5p f64, bx256/by128/bt32, one
// thread) at 1024² and 2048² — untiled transpose-uj2, tessellate
// transpose-uj2, the tessellated generic interpreter (which has no layout
// rims), and the block-granularity model's ceiling for the tiled uj2 run:
// the untiled rate divided by the computed/useful cell ratio of the tile
// schedule (whole sets at the rims plus uj2's level-1 growth by r).
//
// 1D section: varies bt at a fixed tile size and compares against the
// tessellation baseline whose kernels have no layout rims. bt = 1 has no
// shrinking at all (pure full sets).

#include <atomic>

#include "bench_common.hpp"
#include "tsv/tiling/tess.hpp"

namespace {

/// Computed/useful cell ratio of a tessellated transpose-uj2 run of a 2D
/// radius-1 stencil: each pair-unit region b sweeps level 1 over b grown by
/// r and level 2 over b, each row rounded out to whole W²-cell sets.
double uj2_block_model(tsv::index nx, tsv::index ny, tsv::index bx,
                       tsv::index by, tsv::index bt, tsv::index w) {
  constexpr tsv::index R = 1;
  const tsv::index B = w * w;
  auto sets = [&](tsv::index lo, tsv::index hi) {
    return (hi - 1) / B * B + B - lo / B * B;
  };
  std::atomic<tsv::index> computed{0};
  // Stand-in buffers: the engine only hands them back to the callback.
  tsv::Grid1D<double> a(1, 1), b(1, 1);
  tsv::tess_engine<2>(
      a, b, {nx, ny}, {bx, by}, bt / 2, bt / 2, 2 * R,
      [&](const tsv::Grid1D<double>&, tsv::Grid1D<double>&,
          const tsv::Box<2>& r) {
        const tsv::index cxl = std::max<tsv::index>(0, r.lo[0] - R);
        const tsv::index cxh = std::min(nx, r.hi[0] + R);
        const tsv::index cyl = std::max<tsv::index>(0, r.lo[1] - R);
        const tsv::index cyh = std::min(ny, r.hi[1] + R);
        computed += sets(cxl, cxh) * (cyh - cyl) +
                    sets(r.lo[0], r.hi[0]) * (r.hi[1] - r.lo[1]);
      });
  return static_cast<double>(computed.load()) /
         (static_cast<double>(bt) * static_cast<double>(nx * ny));
}

/// Steady-state GLUP/s of one method on the 2d5p headline problem: the
/// first execute (workspace allocation and first touch) is untimed, then
/// best of @p reps executes of the same plan.
double steady_glups(tsv::index n, tsv::Method m, tsv::Tiling t,
                    const tsv::Blocks& blk, tsv::index bt, int reps) {
  tsv::Grid2D<double> g(n, n, 1);
  g.fill([](tsv::index x, tsv::index y) {
    return 0.3 + 1e-4 * static_cast<double>((x + 3 * y) % 97);
  });
  tsv::Options o;
  o.method = m;
  o.tiling = t;
  o.steps = bt;
  o.bx = blk[0];
  o.by = blk[1];
  o.bt = bt;
  o.threads = 1;
  const auto plan =
      tsv::make_plan(tsv::shape_of(g), tsv::make_2d5p<double>(), o);
  plan.execute(g);
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    tsv::Timer timer;
    plan.execute(g);
    best = std::max(best, 1e-9 * static_cast<double>(n * n * bt) /
                              timer.seconds());
  }
  return best;
}

void headline_2d(bench::CsvSink& csv) {
  constexpr tsv::index bx = 256, by = 128, bt = 32;
  constexpr int reps = 7;
  const tsv::index w = tsv::kernel_width(tsv::best_isa(), tsv::Dtype::kF64);
  std::printf("2D 2d5p f64, T=%td, bx=%td by=%td bt=%td, 1 thread, W=%td "
              "(GLUP/s, best of %d warm executes)\n",
              bt, bx, by, bt, w, reps);
  std::printf("%6s | %10s %10s %10s | %7s %7s %7s\n", "n", "uj2", "tess-uj2",
              "tess-gen", "ratio", "model", "ceiling");
  for (tsv::index n : {1024, 2048}) {
    auto run = [&](tsv::Method m, tsv::Tiling t) {
      return steady_glups(n, m, t, {bx, by}, bt, reps);
    };
    const double untiled = run(tsv::Method::kTransposeUJ, tsv::Tiling::kNone);
    const double tiled =
        run(tsv::Method::kTransposeUJ, tsv::Tiling::kTessellate);
    const double generic = run(tsv::Method::kGeneric, tsv::Tiling::kTessellate);
    const double model = uj2_block_model(n, n, bx, by, bt, w);
    std::printf("%6td | %10.2f %10.2f %10.2f | %7.2f %7.2f %7.2f\n", n,
                untiled, tiled, generic, tiled / untiled, model,
                untiled / model);
    std::fflush(stdout);
    csv.row("boundary2d,%td,uj2,%.3f", n, untiled);
    csv.row("boundary2d,%td,tess-uj2,%.3f", n, tiled);
    csv.row("boundary2d,%td,tess-generic,%.3f", n, generic);
    csv.row("boundary2d,%td,model-ceiling,%.3f", n, untiled / model);
  }
  std::printf("(ratio = tess-uj2 / uj2; model = computed/useful cells of the "
              "tile schedule; ceiling = uj2 / model)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bench;
  setup_omp();
  const Config cfg = Config::parse(argc, argv);
  print_header("Ablation: tile-boundary (partial vector set) overhead");
  // x: n for the 2D rows (rate in GLUP/s), bt for the 1D rows (GFLOP/s).
  CsvSink csv(cfg.csv_path, "ablation,x,method,rate");

  headline_2d(csv);

  const tsv::index nx = cfg.paper_scale ? 10240000 : storage_ladder()[3].nx;
  const tsv::index steps = cfg.paper_scale ? 1000 : 256;
  const tsv::index bx = 2048;

  std::printf("1D heat, nx=%td, T=%td, bx=%td, %d threads (GFLOP/s)\n", nx,
              steps, bx, cfg.threads);
  std::printf("%6s | %12s %12s %14s\n", "bt", "our", "our(2stp)",
              "tess-autovec");
  for (tsv::index bt : {1, 2, 8, 32, 128, 512}) {
    if (bx < 2 * bt) continue;
    tsv::Problem p{.name = "1d3p", .kind = tsv::StencilKind::k1d3p,
                   .nx = nx, .ny = 1, .nz = 1, .steps = steps,
                   .bx = bx, .by = 1, .bz = 1, .bt = bt};
    const double our = run_problem_best(p, tsv::Method::kTranspose,
                                   tsv::Tiling::kTessellate, tsv::best_isa(),
                                   cfg.threads);
    const double our2 =
        (bt % 2 == 0)
            ? run_problem_best(p, tsv::Method::kTransposeUJ,
                          tsv::Tiling::kTessellate, tsv::best_isa(),
                          cfg.threads)
            : 0.0;
    const double base = run_problem_best(p, tsv::Method::kAutoVec,
                                    tsv::Tiling::kTessellate, tsv::best_isa(),
                                    cfg.threads);
    std::printf("%6td | %12.1f %12.1f %14.1f\n", bt, our, our2, base);
    csv.row("boundary,%td,our,%.3f", bt, our);
    if (bt % 2 == 0) csv.row("boundary,%td,our2,%.3f", bt, our2);
    csv.row("boundary,%td,tess-autovec,%.3f", bt, base);
  }
  std::printf("\n(deeper bt = more rim work per tile, but more in-cache "
              "time-step reuse; the paper's Fig. 5(d) trick trades these)\n");
  return 0;
}
