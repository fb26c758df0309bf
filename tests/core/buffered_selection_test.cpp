// Differential suite of the buffered-candidate step (eqs. 35-36 plus the
// one-per-type choice) of dp_worker::add_buffered_candidates.
//
// The reference kept here builds every (candidate, type) pair with
// pooled_sub / pooled_sub_scaled and applies the scan rule the engine must
// reproduce: the leftmost candidate whose key is strictly greater than every
// earlier one, starting from the first candidate whatever its key (so a NaN
// key at index 0 wins and a NaN key later never does). The key is the
// selection percentile of the built RAT read through stats::percentile, or
// the rule-specific key at 0.5 (2P: mean; 4P: beta_lo; corner: 1 - q). The
// 2P mean rule at 0.5 is the mean fast path, whose scan starts at -inf.
//
// Every appended candidate is compared bit for bit with the reference: its
// type and chosen base candidate (through the decision pointer), the RAT and
// load forms, and the candidates_created tally.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/dp_engine.hpp"
#include "layout/process_model.hpp"
#include "stats/normal.hpp"
#include "timing/buffer_library.hpp"
#include "timing/wire_sizing.hpp"

namespace vabi::core::detail {
namespace {

constexpr double k_nan = std::numeric_limits<double>::quiet_NaN();

/// One configuration of the rule, selection percentile and model.
struct selection_case {
  pruning_kind rule = pruning_kind::two_param;
  double pbar = 0.5;
  double selection = 0.05;
  layout::variation_mode mode = layout::wid_mode();
  std::size_t types = 3;
};

std::string describe(const selection_case& c, std::size_t list_size) {
  std::ostringstream os;
  os << to_string(c.rule) << " pbar=" << c.pbar << " sel=" << c.selection
     << " mode=" << layout::to_string(c.mode) << " types=" << c.types
     << " list=" << list_size;
  return os.str();
}

timing::buffer_library library_of(std::size_t types) {
  if (types == 1) return timing::single_buffer_library();
  if (types == 3) return timing::standard_library();
  return timing::make_parameterized_library(types);
}

stat_options options_of(const selection_case& c) {
  stat_options o;
  o.library = library_of(c.types);
  o.rule = c.rule;
  o.two_param.p_load = c.pbar;
  o.two_param.p_rat = c.pbar;
  o.selection_percentile = c.selection;
  return o;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bitwise form equality (operator== is false on NaN coefficients).
bool same_form(const stats::linear_form& a, const stats::linear_form& b) {
  if (!same_bits(a.nominal(), b.nominal())) return false;
  if (a.num_terms() != b.num_terms()) return false;
  for (std::size_t i = 0; i < a.num_terms(); ++i) {
    if (a.terms()[i].id != b.terms()[i].id) return false;
    if (!same_bits(a.terms()[i].coeff, b.terms()[i].coeff)) return false;
  }
  return true;
}

/// A buffer position under the source with a few sinks below it, and the
/// model whose space every form of the case lives in.
struct position {
  tree::routing_tree tree{layout::point{0.0, 0.0}};
  tree::node_id id = tree::invalid_node;
  std::optional<layout::process_model> model;
  /// Random sources standing for the devices already buffered below.
  std::vector<stats::source_id> below;

  explicit position(layout::variation_mode mode) {
    id = tree.add_steiner(tree.root(), {700.0, 400.0});
    tree.add_sink(id, {900.0, 650.0}, 0.02, 1000.0);
    tree.add_sink(id, {1400.0, 300.0}, 0.03, 1100.0);
    layout::process_model_config cfg;
    cfg.mode = mode;
    layout::bbox die = tree.bounding_box();
    die.expand({die.lo.x - 1.0, die.lo.y - 1.0});
    die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
    model.emplace(die, cfg);
    for (int i = 0; i < 8; ++i) {
      below.push_back(model->space().add_source(
          stats::source_kind::random_device, 1.0));
    }
  }

  /// Source ids a candidate form may draw on: G, the spatial cells and the
  /// devices below. Empty under NOM, whose forms are all deterministic.
  std::vector<stats::source_id> pool(layout::variation_mode mode) const {
    std::vector<stats::source_id> ids;
    if (mode == layout::nom_mode()) return ids;
    const auto& space = model->space();
    for (stats::source_id s = 0; s < space.size(); ++s) {
      if (space.kind(s) == stats::source_kind::spatial && !mode.spatial) {
        continue;
      }
      if (space.kind(s) == stats::source_kind::inter_die && !mode.inter_die) {
        continue;
      }
      ids.push_back(s);
    }
    return ids;
  }
};

/// A base list with competing (load, RAT) trade-offs. Each candidate owns
/// its forms and carries its own leaf decision, so `why` identifies it.
cand_list random_list(std::size_t n, const std::vector<stats::source_id>& ids,
                      decision_arena& arena, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  cand_list list;
  for (std::size_t k = 0; k < n; ++k) {
    const double load0 = 0.01 + 0.3 * unit(rng);
    const double rat0 = 600.0 + 900.0 * load0 + 40.0 * unit(rng);
    std::vector<stats::lf_term> lt;
    std::vector<stats::lf_term> rt;
    for (const stats::source_id s : ids) {
      if (unit(rng) < 0.5) lt.push_back({s, 0.004 * (unit(rng) - 0.5)});
      if (unit(rng) < 0.7) rt.push_back({s, 12.0 * (unit(rng) - 0.5)});
    }
    stat_candidate c;
    c.load = stats::linear_form(load0, std::move(lt));
    c.rat = stats::linear_form(rat0, std::move(rt));
    c.why = arena.leaf();
    list.push_back(std::move(c));
  }
  return list;
}

/// The build-everything reference: per type, the index of the chosen base
/// candidate and its built RAT.
struct reference_pick {
  std::size_t k = 0;
  stats::linear_form rat;
};

/// stats::percentile, whose normal_percentile asserts sigma >= 0: a NaN
/// form's sigma fails that in builds with assertions, so it gets the same
/// expression written out.
double percentile_of(const stats::linear_form& rat,
                     const stats::variation_space& space, double p) {
  const double sigma = rat.stddev(space);
  if (!std::isnan(sigma)) return stats::percentile(rat, space, p);
  return rat.mean() + sigma * stats::normal_quantile(p);
}

double reference_key(const stat_options& o, const stats::linear_form& rat,
                     const stats::variation_space& space) {
  if (o.selection_percentile != 0.5) {
    return percentile_of(rat, space, o.selection_percentile);
  }
  switch (o.rule) {
    case pruning_kind::two_param:
      return rat.mean();
    case pruning_kind::four_param:
      return percentile_of(rat, space, o.four_param.beta_lo);
    case pruning_kind::corner:
      return percentile_of(rat, space, 1.0 - o.corner.percentile);
  }
  return rat.mean();
}

std::vector<reference_pick> reference_select(
    const cand_list& base, const std::vector<layout::device_variation>& devs,
    const stat_options& o, const stats::variation_space& space,
    stats::term_pool& pool) {
  const bool mean_rule = o.rule == pruning_kind::two_param &&
                         o.two_param.is_mean_rule() &&
                         o.selection_percentile == 0.5;
  std::vector<reference_pick> picks;
  for (std::size_t b = 0; b < devs.size(); ++b) {
    const double res = o.library[b].res_ohm;
    std::optional<reference_pick> best;
    double best_key = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < base.size(); ++k) {
      stats::linear_form rat = stats::pooled_sub(base[k].rat, devs[b].delay,
                                                 pool);
      rat = stats::pooled_sub_scaled(rat, res, base[k].load, pool);
      if (mean_rule) {
        // The mean fast path: the scan starts from -inf at candidate 0.
        if (!best.has_value()) best = reference_pick{0, rat};
        if (rat.mean() > best_key) {
          best_key = rat.mean();
          best = reference_pick{k, rat};
        }
        continue;
      }
      const double key = reference_key(o, rat, space);
      if (!best.has_value() || key > best_key) {
        best_key = key;
        best = reference_pick{k, rat};
      }
    }
    picks.push_back(*best);
  }
  return picks;
}

/// Runs the engine's buffered step on `base` at the case's position and
/// checks it against the reference. `poison_type` gives that type's device
/// a NaN delay nominal, as the device_nan fault point does.
void expect_matches_reference(
    const selection_case& c, position& pos, const cand_list& base,
    std::optional<timing::buffer_index> poison_type = std::nullopt) {
  SCOPED_TRACE(describe(c, base.size()));
  const stat_options options = options_of(c);
  const timing::wire_menu menu =
      timing::make_wire_menu(options.wire, options.wire_width_multipliers);
  std::vector<layout::device_variation> seen;
  std::size_t calls = 0;
  device_fn fn = [&](tree::node_id id, timing::buffer_index b) {
    ++calls;
    layout::device_variation dv = characterize_device(
        *pos.model, pos.tree, id, options.library[b]);
    if (poison_type.has_value() && *poison_type == b) dv.delay += k_nan;
    seen.push_back(dv);
    return dv;
  };
  decision_arena arena;
  worker_arena mem;
  dp_stats dps;
  std::size_t published = 0;
  dp_worker worker{.tree = pos.tree,
                   .space = pos.model->space(),
                   .options = options,
                   .menu = menu,
                   .devices = fn,
                   .arena = arena,
                   .pool = mem,
                   .dps = dps,
                   .guard = resource_guard{options, dps, published}};

  cand_list list = base;
  EXPECT_FALSE(worker.add_buffered_candidates(list, pos.id));
  ASSERT_EQ(calls, options.library.size());
  ASSERT_EQ(list.size(), base.size() + options.library.size());
  // Every scored (candidate, type) pair counts; the mean fast path scores
  // none and counts only the candidate it builds per type.
  const bool mean_path = options.rule == pruning_kind::two_param &&
                         options.two_param.is_mean_rule() &&
                         options.selection_percentile == 0.5;
  EXPECT_EQ(dps.candidates_created,
            (mean_path ? 1 : base.size()) * options.library.size());

  stats::term_pool ref_pool;
  const auto picks =
      reference_select(base, seen, options, pos.model->space(), ref_pool);
  for (std::size_t b = 0; b < options.library.size(); ++b) {
    SCOPED_TRACE("type " + std::to_string(b));
    const stat_candidate& got = list[base.size() + b];
    ASSERT_NE(got.why, nullptr);
    EXPECT_EQ(got.why->what, decision::kind::buffer);
    EXPECT_EQ(got.why->buffer, b);
    EXPECT_EQ(got.why->node, pos.id);
    EXPECT_EQ(got.why->left, base[picks[b].k].why)
        << "reference picks candidate " << picks[b].k;
    EXPECT_TRUE(same_form(got.rat, picks[b].rat));
    EXPECT_TRUE(same_form(got.load, seen[b].cap));
  }
  mem.end_node();
}

// ---------------------------------------------------------------------------
// The configuration grid: rules x selection percentiles x models x library
// sizes x list sizes, on random trade-off lists.
// ---------------------------------------------------------------------------

std::vector<selection_case> grid() {
  struct rule_cfg {
    pruning_kind rule;
    double pbar;
  };
  const rule_cfg rules[] = {{pruning_kind::two_param, 0.5},
                            {pruning_kind::two_param, 0.9},
                            {pruning_kind::four_param, 0.5},
                            {pruning_kind::corner, 0.5}};
  const double selections[] = {0.05, 0.2, 0.5, 0.95};
  const layout::variation_mode modes[] = {
      layout::nom_mode(), layout::d2d_mode(), layout::wid_mode()};
  const std::size_t types[] = {1, 3, 64};
  std::vector<selection_case> out;
  for (const auto& r : rules) {
    for (const double sel : selections) {
      for (const auto& m : modes) {
        for (const std::size_t t : types) {
          out.push_back({r.rule, r.pbar, sel, m, t});
        }
      }
    }
  }
  return out;
}

TEST(BufferedSelection, MatchesBuildEverythingReferenceOnGrid) {
  std::uint64_t seed = 1;
  for (const selection_case& c : grid()) {
    position pos(c.mode);
    const auto ids = pos.pool(c.mode);
    for (const std::size_t n : {1u, 2u, 40u}) {
      decision_arena leaves;
      const cand_list base = random_list(n, ids, leaves, seed++);
      expect_matches_reference(c, pos, base);
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial lists.
// ---------------------------------------------------------------------------

/// The yield-driven configurations the adversarial lists run under.
std::vector<selection_case> adversarial_cases() {
  std::vector<selection_case> out;
  for (const double sel : {0.05, 0.5, 0.95}) {
    for (const std::size_t t : {1u, 3u, 64u}) {
      const auto wid = layout::wid_mode();
      const auto d2d = layout::d2d_mode();
      out.push_back({pruning_kind::two_param, 0.5, sel, wid, t});
      out.push_back({pruning_kind::two_param, 0.9, sel, wid, t});
      out.push_back({pruning_kind::four_param, 0.5, sel, d2d, t});
      out.push_back({pruning_kind::corner, 0.5, sel, wid, t});
    }
  }
  return out;
}

template <class Mutate>
void run_adversarial(std::size_t n, Mutate mutate,
                     std::optional<timing::buffer_index> poison = {}) {
  std::uint64_t seed = 1000;
  for (const selection_case& c : adversarial_cases()) {
    position pos(c.mode);
    decision_arena leaves;
    cand_list base = random_list(n, pos.pool(c.mode), leaves, seed++);
    mutate(base, leaves);
    expect_matches_reference(c, pos, base, poison);
  }
}

TEST(BufferedSelection, ExactDuplicatesPickTheLeftmost) {
  // Candidates 1, 2 and 4 are copies of candidate 3 (distinct decisions):
  // equal keys, so the leftmost of the best must win.
  run_adversarial(6, [](cand_list& list, decision_arena& arena) {
    for (const std::size_t k : {1u, 2u, 4u}) {
      list[k] = list[3];
      list[k].why = arena.leaf();
    }
  });
}

TEST(BufferedSelection, KeysOneUlpApart) {
  // Same forms with nominals one ulp apart, in both directions.
  run_adversarial(5, [](cand_list& list, decision_arena& arena) {
    for (std::size_t k = 1; k < list.size(); ++k) {
      list[k] = list[0];
      list[k].why = arena.leaf();
      double rat0 = list[0].rat.nominal();
      for (std::size_t step = 0; step < k; ++step) {
        rat0 = std::nextafter(rat0, k % 2 == 0 ? 1e9 : -1e9);
      }
      list[k].rat += rat0 - list[k].rat.nominal();
    }
  });
}

TEST(BufferedSelection, ZeroVarianceForms) {
  // Deterministic candidates next to random ones: sigma == 0 keys are the
  // mean itself.
  run_adversarial(7, [](cand_list& list, decision_arena&) {
    for (const std::size_t k : {0u, 2u, 5u}) {
      list[k].rat = stats::linear_form(list[k].rat.nominal());
      list[k].load = stats::linear_form(list[k].load.nominal());
    }
  });
}

TEST(BufferedSelection, NanDelayNominalOnOneType) {
  // A device_nan-style poisoned device: every key of that type is NaN, so
  // candidate 0 wins it; the other types are unaffected.
  run_adversarial(
      6, [](cand_list&, decision_arena&) {}, timing::buffer_index{0});
}

TEST(BufferedSelection, NanCoefficientInFirstCandidate) {
  run_adversarial(6, [](cand_list& list, decision_arena&) {
    list[0].rat.add_term(list[0].rat.terms().empty()
                             ? 0
                             : list[0].rat.terms()[0].id,
                         k_nan);
  });
}

TEST(BufferedSelection, NanCoefficientInLaterCandidate) {
  // Candidate 3's key is NaN and must never win, even when the candidates
  // before it are clearly worse than the ones after it.
  run_adversarial(6, [](cand_list& list, decision_arena&) {
    for (const std::size_t k : {0u, 1u, 2u}) list[k].rat -= 500.0;
    list[3].rat.add_term(
        list[3].rat.terms().empty() ? 0 : list[3].rat.terms()[0].id, k_nan);
  });
}

TEST(BufferedSelection, NanLoadCoefficient) {
  run_adversarial(5, [](cand_list& list, decision_arena&) {
    list[2].load.add_term(
        list[2].load.terms().empty() ? 0 : list[2].load.terms()[0].id, k_nan);
  });
}

}  // namespace
}  // namespace vabi::core::detail
