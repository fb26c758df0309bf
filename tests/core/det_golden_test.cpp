// Golden bit-identity of the deterministic engines: van Ginneken (the NOM
// optimizer, with and without the Li-Shi frontier) and cost-bounded
// insertion.
//
// The hashes were captured at commit 81ed95d. A NOM hash is FNV-1a over the
// bits of the root RAT, the per-node buffer and wire assignment, num_buffers,
// the work counters {candidates_created, candidates_pruned, merge_pairs,
// peak_list_size} and li_shi_nodes. A cost-bounded hash covers every
// frontier point's cost and root RAT bits, its assignment and wires, and
// the same counters.
//
// A moved hash means a change altered the arithmetic or the DP's work
// (which candidates it built, merged or pruned). Recapture only with an
// explicit justification in the commit message, as for GoldenBitIdentity.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <ios>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/cost_bounded.hpp"
#include "core/van_ginneken.hpp"
#include "stats/fnv1a.hpp"
#include "tree/benchmarks.hpp"
#include "tree/generators.hpp"
#include "solved_test_util.hpp"

namespace vabi::core {
namespace {

using testutil::solved;

enum class net_kind { rand40, rand120_balanced, rand200, chain400, p1 };

const char* net_name(net_kind k) {
  switch (k) {
    case net_kind::rand40:
      return "rand40";
    case net_kind::rand120_balanced:
      return "rand120bal";
    case net_kind::rand200:
      return "rand200";
    case net_kind::chain400:
      return "chain400";
    case net_kind::p1:
      return "p1";
  }
  return "?";
}

tree::routing_tree make_net(net_kind k) {
  tree::random_tree_options to;
  switch (k) {
    case net_kind::rand40:
      to.num_sinks = 40;
      to.die_side_um = 6000.0;
      to.seed = 31;
      return tree::make_random_tree(to);
    case net_kind::rand120_balanced:
      to.num_sinks = 120;
      to.die_side_um = 8000.0;
      to.seed = 5;
      to.criticality_balance = 1.0;
      return tree::make_random_tree(to);
    case net_kind::rand200:
      to.num_sinks = 200;
      to.die_side_um = 10000.0;
      to.seed = 77;
      return tree::make_random_tree(to);
    case net_kind::chain400: {
      tree::chain_options co;
      co.length_um = 20000.0;
      co.segments = 400;
      return tree::make_chain(co);
    }
    case net_kind::p1:
      return tree::build_benchmark(*tree::find_benchmark("p1"));
  }
  throw std::logic_error("unknown net");
}

std::uint64_t hash_design(std::uint64_t h,
                          const timing::buffer_assignment& buffers,
                          const timing::wire_assignment& wires,
                          std::size_t num_nodes) {
  for (tree::node_id n = 0; n < num_nodes; ++n) {
    h = stats::fnv1a_u64(buffers.has_buffer(n) ? buffers.buffer(n) + 1 : 0,
                         h);
    h = stats::fnv1a_u64(wires.width(n), h);
  }
  return h;
}

std::uint64_t hash_counters(std::uint64_t h, const dp_stats& s) {
  for (const std::size_t c :
       {s.candidates_created, s.candidates_pruned, s.merge_pairs,
        s.peak_list_size, s.li_shi_nodes}) {
    h = stats::fnv1a_u64(c, h);
  }
  return h;
}

// -- van Ginneken ------------------------------------------------------------

struct nom_golden {
  net_kind net;
  bool big_library;  ///< make_parameterized_library(8), else standard
  bool sizing;       ///< widths {0.7, 1, 1.4}, else {1}
  li_shi_mode li_shi;
  std::uint64_t hash;
};

std::string nom_name(const nom_golden& g) {
  return std::string(net_name(g.net)) + (g.big_library ? "_lib8" : "_std") +
         (g.sizing ? "_sized" : "") +
         (g.li_shi == li_shi_mode::never ? "_scan" : "_auto");
}

void PrintTo(const nom_golden& g, std::ostream* os) { *os << nom_name(g); }

std::uint64_t hash_nom(const det_result& r, std::size_t num_nodes) {
  std::uint64_t h = stats::fnv1a_f64(r.root_rat_ps, stats::fnv1a_seed);
  h = hash_design(h, r.assignment, r.wires, num_nodes);
  h = stats::fnv1a_u64(r.num_buffers, h);
  return hash_counters(h, r.stats);
}

constexpr auto kAuto = li_shi_mode::automatic;
constexpr auto kScan = li_shi_mode::never;
constexpr auto kR40 = net_kind::rand40;
constexpr auto kR120 = net_kind::rand120_balanced;
constexpr auto kR200 = net_kind::rand200;
constexpr auto kChain = net_kind::chain400;
constexpr auto kP1 = net_kind::p1;

// Captured at 81ed95d; see the file comment.
constexpr nom_golden kNomGoldens[] = {
    {kR40, false, false, kAuto, 0x02965c5aba5dc712ull},
    {kR40, false, false, kScan, 0x98ab277b76d36e3dull},
    {kR40, false, true, kAuto, 0x4cd3df9f2c8d16beull},
    {kR40, false, true, kScan, 0xfb6601e6e293cad1ull},
    {kR40, true, false, kAuto, 0x865bb50e3a2342cfull},
    {kR40, true, false, kScan, 0xf6f84943da4b62a0ull},
    {kR40, true, true, kAuto, 0x1a47bc1c16c56059ull},
    {kR40, true, true, kScan, 0x7c092943b1ca0a36ull},
    {kR120, false, false, kAuto, 0x3102110dbac0d05cull},
    {kR120, false, false, kScan, 0xbd74ac1582c8e093ull},
    {kR120, false, true, kAuto, 0x40615cb448d06a47ull},
    {kR120, false, true, kScan, 0x3eb504deb1a8f888ull},
    {kR120, true, false, kAuto, 0x62d6a5da80006960ull},
    {kR120, true, false, kScan, 0x12e1308381ef056full},
    {kR120, true, true, kAuto, 0x6aa3192a8c94bdd3ull},
    {kR120, true, true, kScan, 0x60ccf99d4ce79d1cull},
    {kR200, false, false, kAuto, 0xe8b80c5bbfc73da5ull},
    {kR200, false, false, kScan, 0x0b1c291ebfa1e7a5ull},
    {kR200, false, true, kAuto, 0x6b0b59aeaecaf66full},
    {kR200, false, true, kScan, 0xfbf7d3e921273afbull},
    {kR200, true, false, kAuto, 0x2767124f955c4744ull},
    {kR200, true, false, kScan, 0x996b68d7bacfd2b0ull},
    {kR200, true, true, kAuto, 0xb78032825ae16159ull},
    {kR200, true, true, kScan, 0xe20e16fd0341ba51ull},
    {kChain, false, false, kAuto, 0x5f30f6ce249dc81dull},
    {kChain, false, false, kScan, 0x06ee7059f963a7d2ull},
    {kChain, false, true, kAuto, 0xaccc2dad4ef7442bull},
    {kChain, false, true, kScan, 0x7530c617c5d3dfc0ull},
    {kChain, true, false, kAuto, 0x5734ac6dd57328e1ull},
    {kChain, true, false, kScan, 0xfef225f9aa390896ull},
    {kChain, true, true, kAuto, 0xf44c8f9d4491c221ull},
    {kChain, true, true, kScan, 0xa143001e2a0d80d6ull},
    {kP1, false, false, kAuto, 0x8f6989eb6f872094ull},
    {kP1, false, false, kScan, 0x30df805175986173ull},
    {kP1, false, true, kAuto, 0x463c2c9175999112ull},
    {kP1, false, true, kScan, 0xf30f53acd6724265ull},
    {kP1, true, false, kAuto, 0xee80ff3f96bf5c06ull},
    {kP1, true, false, kScan, 0x8b0096eba68caf69ull},
    {kP1, true, true, kAuto, 0x23933cb04b50e7b7ull},
    {kP1, true, true, kScan, 0x8713a5043b839454ull},
};

class DetGolden : public testing::TestWithParam<nom_golden> {};

TEST_P(DetGolden, VanGinnekenMatchesCapture) {
  const nom_golden& g = GetParam();
  const auto net = make_net(g.net);
  det_options o;
  o.library = g.big_library ? timing::make_parameterized_library(8)
                            : timing::standard_library();
  o.driver_res_ohm = 150.0;
  if (g.sizing) o.wire_width_multipliers = {0.7, 1.0, 1.4};
  o.li_shi = g.li_shi;
  const auto r = solved(solve_van_ginneken(net, o));
  const std::uint64_t h = hash_nom(r, net.num_nodes());
  EXPECT_EQ(h, g.hash) << nom_name(g) << " hashed 0x" << std::hex << h
                       << ": see the file comment before recapturing";
}

INSTANTIATE_TEST_SUITE_P(Nom, DetGolden, testing::ValuesIn(kNomGoldens),
                         [](const testing::TestParamInfo<nom_golden>& info) {
                           return nom_name(info.param);
                         });

// -- Cost-bounded insertion --------------------------------------------------

enum class cost_kind { unit, weighted, capped };

struct cost_golden {
  net_kind net;
  cost_kind costs;  ///< unit: every buffer 1; weighted: {1, 2, 4}; capped:
                    ///< {1, 2, 4} with max_cost 6
  bool sizing;
  std::uint64_t hash;
};

std::string cost_name(const cost_golden& g) {
  static constexpr const char* kCosts[] = {"unit", "weighted", "capped"};
  return std::string(net_name(g.net)) + "_" +
         kCosts[static_cast<int>(g.costs)] + (g.sizing ? "_sized" : "");
}

void PrintTo(const cost_golden& g, std::ostream* os) { *os << cost_name(g); }

std::uint64_t hash_cost(const cost_bounded_result& r, std::size_t num_nodes) {
  std::uint64_t h = stats::fnv1a_u64(r.frontier.size(), stats::fnv1a_seed);
  for (const cost_rat_point& p : r.frontier) {
    h = stats::fnv1a_f64(p.cost, h);
    h = stats::fnv1a_f64(p.root_rat_ps, h);
    h = hash_design(h, p.assignment, p.wires, num_nodes);
  }
  return hash_counters(h, r.stats);
}

constexpr auto kUnit = cost_kind::unit;
constexpr auto kWeighted = cost_kind::weighted;
constexpr auto kCapped = cost_kind::capped;

// Captured at 81ed95d; see the file comment.
constexpr cost_golden kCostGoldens[] = {
    {kR40, kUnit, false, 0xc5079e88c532ac95ull},
    {kR40, kUnit, true, 0x6229d1fac8fe401aull},
    {kR40, kWeighted, false, 0x2f33cb026ee576a7ull},
    {kR40, kWeighted, true, 0xa4476837396889f4ull},
    {kR40, kCapped, false, 0x747e931e77f16147ull},
    {kR40, kCapped, true, 0x2fe5c0c82c52e9bbull},
    {kR120, kUnit, false, 0x6ef25ab6397ab675ull},
    {kR120, kWeighted, false, 0xf14525dfa331f948ull},
    {kR120, kCapped, false, 0x3918cb003cae3b4full},
    {kR120, kCapped, true, 0x59bce50c8a966566ull},
};

class DetGoldenCost : public testing::TestWithParam<cost_golden> {};

TEST_P(DetGoldenCost, CostBoundedMatchesCapture) {
  const cost_golden& g = GetParam();
  const auto net = make_net(g.net);
  cost_bounded_options o;
  o.base.library = timing::standard_library();
  o.base.driver_res_ohm = 150.0;
  if (g.sizing) o.base.wire_width_multipliers = {0.7, 1.0, 1.4};
  if (g.costs != cost_kind::unit) o.buffer_costs = {1.0, 2.0, 4.0};
  if (g.costs == cost_kind::capped) o.max_cost = 6.0;
  const auto r = solved(solve_cost_bounded_insertion(net, o));
  const std::uint64_t h = hash_cost(r, net.num_nodes());
  EXPECT_EQ(h, g.hash) << cost_name(g) << " hashed 0x" << std::hex << h
                       << ": see the file comment before recapturing";
}

INSTANTIATE_TEST_SUITE_P(Cost, DetGoldenCost, testing::ValuesIn(kCostGoldens),
                         [](const testing::TestParamInfo<cost_golden>& info) {
                           return cost_name(info.param);
                         });

}  // namespace
}  // namespace vabi::core
