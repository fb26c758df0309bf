// The moment bounds of the bounded buffered-candidate selection
// (dp_worker::key_bounds) must bracket the key read off every buffered
// candidate the worker builds: the property the selection's exactness rests
// on (DESIGN.md, "Bounded buffered-candidate selection"). A bound that
// misses the built key by one rounding can only change a near tie, which
// random lists rarely hold, so the differential suite alone would not see it.
// Also here: what the selection path counters count, and that the per-worker
// delay table survives a bad_alloc mid-position without stale rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <new>
#include <random>
#include <utility>
#include <vector>

#include "core/dp_engine.hpp"
#include "layout/process_model.hpp"
#include "testing/fault_injection.hpp"
#include "timing/buffer_library.hpp"
#include "timing/wire_sizing.hpp"

namespace vabi::core::detail {
namespace {

TEST(SelectionBounds, BracketTheBuiltKeys) {
  const layout::variation_mode modes[] = {layout::d2d_mode(),
                                          layout::wid_mode()};
  std::size_t checked = 0;
  std::uint64_t seed = 1;
  for (const auto& mode : modes) {
    for (const double selection : {0.05, 0.95}) {
      for (const std::size_t types : {3u, 64u}) {
        stat_options options;
        options.library = types == 3
                              ? timing::standard_library()
                              : timing::make_parameterized_library(types);
        options.two_param.p_load = 0.9;
        options.two_param.p_rat = 0.9;
        options.selection_percentile = selection;
        const timing::wire_menu menu = timing::make_wire_menu(
            options.wire, options.wire_width_multipliers);
        layout::process_model_config config;
        config.mode = mode;
        config.spatial.profile = layout::spatial_profile::heterogeneous;
        layout::process_model model(layout::square_die(10000.0), config);
        tree::routing_tree tree({0.0, 0.0});
        const tree::node_id id =
            tree.add_steiner(tree.root(), {5000.0, 5000.0});

        // Candidates carrying the delays of devices below at random
        // locations, with coefficients jittered so no two share a form.
        std::mt19937_64 rng(seed++);
        std::uniform_real_distribution<double> coord(3000.0, 7000.0);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        const timing::buffer_type ref = timing::standard_library()[0];
        cand_list list;
        for (int k = 0; k < 40; ++k) {
          stat_candidate c;
          const double load0 = 0.01 + 0.2 * unit(rng);
          c.rat = stats::linear_form(800.0 + 1500.0 * load0);
          for (int d = 0; d < 3; ++d) {
            c.rat -= model.characterize({coord(rng), coord(rng)}, ref.cap_pf,
                                        ref.delay_ps).delay;
          }
          c.rat *= 1.0 + 0.1 * unit(rng);
          c.load = model.characterize({coord(rng), coord(rng)}, load0, 1.0).cap;
          list.push_back(std::move(c));
        }

        decision_arena arena;
        worker_arena mem;
        dp_stats dps;
        std::size_t published = 0;
        dp_worker worker{
            .tree = tree,
            .space = model.space(),
            .options = options,
            .menu = menu,
            .devices =
                [&](tree::node_id node, timing::buffer_index b) {
                  return characterize_device(model, tree, node,
                                             options.library[b]);
                },
            .arena = arena,
            .pool = mem,
            .dps = dps,
            .guard = resource_guard{options, dps, published}};
        const auto devs = worker.gather_devices(id);
        worker.gather_moments(list, list.size(), devs);
        for (std::size_t b = 0; b < types; ++b) {
          ASSERT_TRUE(worker.key_bounds(list, list.size(), b, devs[b]));
          const auto& s = mem.selection();
          for (std::size_t k = 0; k < list.size(); ++k) {
            const stat_candidate built =
                worker.buffered(list[k], id, b, devs[b], devs[b].cap);
            const double key = worker.select.of(built.rat, model.space());
            EXPECT_LE(s.lo[k], key) << "k=" << k << " b=" << b;
            EXPECT_GE(s.hi[k], key) << "k=" << k << " b=" << b;
            ++checked;
          }
        }
        mem.end_node();
      }
    }
  }
  EXPECT_EQ(checked, 2u * 2u * (3u + 64u) * 40u);
}

// The path counters count scored selections only: one per type when the
// list holds two or more candidates, none for a one-candidate list.
TEST(SelectionBounds, CountersSkipOneCandidateLists) {
  layout::process_model_config config;
  config.mode = layout::wid_mode();
  layout::process_model model(layout::square_die(10000.0), config);
  tree::routing_tree tree({0.0, 0.0});
  const tree::node_id id = tree.add_steiner(tree.root(), {5000.0, 5000.0});
  stat_options options;
  options.library = timing::standard_library();
  options.selection_percentile = 0.05;
  const timing::wire_menu menu =
      timing::make_wire_menu(options.wire, options.wire_width_multipliers);
  const timing::buffer_type ref = options.library[0];

  for (const std::size_t n : {1u, 2u, 12u}) {
    cand_list list;
    for (std::size_t k = 0; k < n; ++k) {
      stat_candidate c;
      c.rat = stats::linear_form(900.0 + 40.0 * static_cast<double>(k));
      c.rat -= model.characterize({4000.0 + 150.0 * static_cast<double>(k),
                                   4500.0},
                                  ref.cap_pf, ref.delay_ps)
                   .delay;
      c.load = stats::linear_form(0.02 + 0.01 * static_cast<double>(k));
      list.push_back(std::move(c));
    }
    decision_arena arena;
    worker_arena mem;
    dp_stats dps;
    std::size_t published = 0;
    dp_worker worker{.tree = tree,
                     .space = model.space(),
                     .options = options,
                     .menu = menu,
                     .devices =
                         [&](tree::node_id node, timing::buffer_index b) {
                           return characterize_device(model, tree, node,
                                                      options.library[b]);
                         },
                     .arena = arena,
                     .pool = mem,
                     .dps = dps,
                     .guard = resource_guard{options, dps, published}};
    worker.add_buffered_candidates(list, id);
    const std::size_t types = options.library.size();
    EXPECT_EQ(dps.candidates_created, n * types) << n;
    EXPECT_EQ(dps.selection_bounded + dps.selection_exact, n > 1 ? types : 0)
        << n;
    mem.end_node();
  }
}

// A bad_alloc out of a position's builds (the term_pool_alloc fault point)
// cuts select_buffered short with the position's delay-table rows still
// claimed, in a worker arena that outlives the failed solve (the one-shot
// thread-local arena, session workers). The arena's next position must not
// read them: neither as covariances with ids its delays lack, nor as row
// indices sized for another library.
TEST(SelectionBounds, RowsOfAFailedPositionAreNotReadAgain) {
  layout::process_model_config config;
  config.mode = layout::wid_mode();
  layout::process_model model(layout::square_die(10000.0), config);
  tree::routing_tree tree({0.0, 0.0});
  const tree::node_id below = tree.add_steiner(tree.root(), {4000.0, 4000.0});
  const tree::node_id above = tree.add_steiner(tree.root(), {6000.0, 6500.0});

  stat_options narrow;
  narrow.library = timing::standard_library();
  narrow.selection_percentile = 0.05;
  stat_options wide = narrow;
  wide.library = timing::make_parameterized_library(64);
  const timing::wire_menu menu =
      timing::make_wire_menu(narrow.wire, narrow.wire_width_multipliers);

  // Each (node, library, type) is characterized once, so the failed
  // position's devices and both replays of the next one share their ids.
  std::map<std::pair<tree::node_id, std::size_t>, layout::device_variation>
      memo;
  const auto devices_of = [&](const stat_options& o) -> device_fn {
    return [&, lib = &o.library](tree::node_id node, timing::buffer_index b) {
      const auto [it, fresh] = memo.try_emplace({node, lib->size() * 100 + b});
      if (fresh) it->second = characterize_device(model, tree, node, (*lib)[b]);
      return it->second;
    };
  };

  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> coord(3000.0, 7000.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const timing::buffer_type ref = narrow.library[0];
  cand_list failed_list;
  for (int k = 0; k < 12; ++k) {
    stat_candidate c;
    const double load0 = 0.01 + 0.2 * unit(rng);
    c.rat = stats::linear_form(800.0 + 1500.0 * load0);
    c.rat -= model.characterize({coord(rng), coord(rng)}, ref.cap_pf,
                                ref.delay_ps).delay;
    c.load = model.characterize({coord(rng), coord(rng)}, load0, 1.0).cap;
    failed_list.push_back(std::move(c));
  }
  // The next position's candidates carry the failed position's devices,
  // as if buffered there: their ids hold the stale rows.
  const device_fn below_devices = devices_of(narrow);
  cand_list next_list = failed_list;
  for (std::size_t k = 0; k < next_list.size(); ++k) {
    next_list[k].rat -= below_devices(below, k % 3).delay;
  }

  struct position {
    std::vector<double> lo, hi;
    cand_list appended;
  };
  for (const stat_options* next : {&narrow, &wide}) {
    const auto solve_next = [&](worker_arena& mem) {
      decision_arena arena;
      dp_stats dps;
      std::size_t published = 0;
      dp_worker worker{.tree = tree,
                       .space = model.space(),
                       .options = *next,
                       .menu = menu,
                       .devices = devices_of(*next),
                       .arena = arena,
                       .pool = mem,
                       .dps = dps,
                       .guard = resource_guard{*next, dps, published}};
      position out;
      const auto devs = worker.gather_devices(above);
      worker.gather_moments(next_list, next_list.size(), devs);
      for (std::size_t b = 0; b < devs.size(); ++b) {
        EXPECT_TRUE(worker.key_bounds(next_list, next_list.size(), b, devs[b]));
        const auto& s = mem.selection();
        out.lo.insert(out.lo.end(), s.lo.begin(), s.lo.end());
        out.hi.insert(out.hi.end(), s.hi.begin(), s.hi.end());
      }
      cand_list list = next_list;
      worker.add_buffered_candidates(list, above);
      // Own the appended forms before the scratch epoch ends.
      for (std::size_t i = next_list.size(); i < list.size(); ++i) {
        stat_candidate c = list[i];
        c.rat.own_terms();
        c.load.own_terms();
        out.appended.push_back(std::move(c));
      }
      mem.end_node();
      return out;
    };

    worker_arena used;
    {
      decision_arena arena;
      dp_stats dps;
      std::size_t published = 0;
      dp_worker worker{.tree = tree,
                       .space = model.space(),
                       .options = narrow,
                       .menu = menu,
                       .devices = below_devices,
                       .arena = arena,
                       .pool = used,
                       .dps = dps,
                       .guard = resource_guard{narrow, dps, published}};
      cand_list list = failed_list;
      testing::arm("term_pool_alloc");
      EXPECT_THROW(worker.add_buffered_candidates(list, below), std::bad_alloc);
      testing::disarm();
      ASSERT_FALSE(used.selection().touched.empty());
      used.begin_run();
    }
    worker_arena clean;
    const position got = solve_next(used);
    const position want = solve_next(clean);
    const auto same_bits = [](const std::vector<double>& a,
                              const std::vector<double>& b) {
      return a.size() == b.size() &&
             std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
               return std::bit_cast<std::uint64_t>(x) ==
                      std::bit_cast<std::uint64_t>(y);
             });
    };
    const std::size_t types = next->library.size();
    EXPECT_TRUE(same_bits(got.lo, want.lo)) << types << " types";
    EXPECT_TRUE(same_bits(got.hi, want.hi)) << types << " types";
    ASSERT_EQ(got.appended.size(), types);
    ASSERT_EQ(want.appended.size(), types);
    for (std::size_t b = 0; b < types; ++b) {
      EXPECT_EQ(got.appended[b].rat, want.appended[b].rat) << "b=" << b;
      EXPECT_EQ(got.appended[b].load, want.appended[b].load) << "b=" << b;
    }
  }
}

}  // namespace
}  // namespace vabi::core::detail
