// Table 5: number of buffers inserted by each optimization mode.
//
// Paper shape to reproduce: WID uses the fewest buffers (NOM ~1.15x, D2D
// ~1.13x on average) -- the variation-aware optimizer spends buffers only
// where they buy statistical RAT.
//
// A second section sweeps the library size b (make_parameterized_library):
// richer libraries let both the deterministic and the 2P engines hit the
// same RAT with different (usually fewer) repeaters, and with the Li-Shi
// frontier the sweep stays near-linear in b. `--smoke` restricts the suite
// and the sweep for the CI bench-smoke job; `--json <path>` writes the
// BENCH_table5.json artifact.
#include <iostream>
#include <string>
#include <vector>

#include "json_out.hpp"
#include "rat_pipeline.hpp"

namespace {

bool smoke_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return true;
  }
  const char* v = std::getenv("VABI_SMOKE");
  return v != nullptr && std::string(v) != "0";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vabi;
  bench::experiment_config cfg;
  const bool smoke = smoke_mode(argc, argv);
  bench::json_records json;

  std::cout << "=== Table 5: Number of buffers under different variation "
               "models (heterogeneous spatial) ===\n";
  analysis::text_table t{{"Bench", "NOM", "D2D", "WID"}};
  double ratio_nom = 0.0;
  double ratio_d2d = 0.0;
  std::size_t n = 0;
  auto specs = bench::suite();
  if (smoke) specs.resize(std::min<std::size_t>(specs.size(), 2));
  for (const auto& spec : specs) {
    const auto row = bench::run_rat_experiment(
        spec, cfg, layout::spatial_profile::heterogeneous);
    const double wid = static_cast<double>(std::max<std::size_t>(row.buf_wid, 1));
    ratio_nom += static_cast<double>(row.buf_nom) / wid;
    ratio_d2d += static_cast<double>(row.buf_d2d) / wid;
    ++n;
    t.add_row({row.name,
               std::to_string(row.buf_nom) + " (" +
                   analysis::fmt(static_cast<double>(row.buf_nom) / wid, 2) +
                   "x)",
               std::to_string(row.buf_d2d) + " (" +
                   analysis::fmt(static_cast<double>(row.buf_d2d) / wid, 2) +
                   "x)",
               std::to_string(row.buf_wid)});
    json.begin()
        .str("section", "modes")
        .str("bench", row.name)
        .num("buf_nom", static_cast<std::uint64_t>(row.buf_nom))
        .num("buf_d2d", static_cast<std::uint64_t>(row.buf_d2d))
        .num("buf_wid", static_cast<std::uint64_t>(row.buf_wid));
  }
  t.add_row({"Avg", analysis::fmt(ratio_nom / static_cast<double>(n), 2) + "x",
             analysis::fmt(ratio_d2d / static_cast<double>(n), 2) + "x", "1x"});
  t.print(std::cout);

  // -- Library-size axis ----------------------------------------------------
  std::cout << "\n=== Buffers vs library size (Li-Shi frontier) ===\n";
  analysis::text_table tb{{"b", "NOM bufs", "NOM (s)", "WID 2P bufs",
                           "WID 2P (s)", "li-shi nodes"}};
  const std::vector<std::size_t> lib_sizes =
      smoke ? std::vector<std::size_t>{8, 64}
            : std::vector<std::size_t>{8, 64, 256};
  tree::benchmark_spec bspec;
  bspec.name = "baxis";
  bspec.sinks = smoke ? 64 : 128;
  bspec.die_side_um = 6000.0;
  bspec.seed = 900;
  const auto bnet = tree::build_benchmark(bspec);
  const auto profile = layout::spatial_profile::heterogeneous;

  for (const std::size_t b : lib_sizes) {
    const auto lib = timing::make_parameterized_library(b);

    core::det_options det{cfg.wire, lib, cfg.driver_res_ohm};
    const auto rd = bench::expect_solved(core::solve_van_ginneken(bnet, det));

    core::stat_options so =
        bench::make_stat_options(cfg, core::pruning_kind::two_param);
    so.library = lib;
    so.selection_percentile = 0.5;  // mean selection: the frontier regime
    auto model = bench::make_model(bspec, cfg, layout::wid_mode(), profile);
    const auto rs = bench::expect_solved(
        core::solve_statistical_insertion(bnet, model, so));

    tb.add_row({std::to_string(b), std::to_string(rd.num_buffers),
                analysis::fmt(rd.stats.wall_seconds, 3),
                std::to_string(rs.num_buffers),
                analysis::fmt(rs.stats.wall_seconds, 3),
                std::to_string(rs.stats.li_shi_nodes)});
    json.begin()
        .str("section", "b_axis")
        .num("b", static_cast<std::uint64_t>(b))
        .num("buf_nom", static_cast<std::uint64_t>(rd.num_buffers))
        .num("buf_wid", static_cast<std::uint64_t>(rs.num_buffers))
        .num("det_seconds", rd.stats.wall_seconds)
        .num("stat_seconds", rs.stats.wall_seconds)
        .num("li_shi_nodes",
             static_cast<std::uint64_t>(rs.stats.li_shi_nodes));
  }
  tb.print(std::cout);

  const std::string json_path = bench::parse_json_path(argc, argv);
  if (json.write(json_path, "table5_buffers")) {
    std::cout << "(json artifact: " << json_path << ")\n";
  }
  std::cout << "(paper: NOM avg 1.15x, D2D avg 1.13x, WID 1x -- WID uses the "
               "fewest buffers)\n";
  return 0;
}
