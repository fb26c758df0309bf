#include "core/slab_cache.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/journal.hpp"
#include "core/slab_cache_impl.hpp"

namespace vabi::core {

std::uint64_t form_hash(const stats::linear_form& f) {
  std::uint64_t h = fnv1a_f64(f.nominal(), fnv1a_seed);
  for (const auto& t : f.terms()) {
    h = fnv1a_u64(t.id, h);
    h = fnv1a_f64(t.coeff, h);
  }
  return h;
}

namespace detail {

void session_state::flush_entries() {
  for (auto& e : entries) e.valid = false;
}

void session_state::invalidate_path(const tree::routing_tree& tree,
                                    tree::node_id id) {
  for (tree::node_id a = id; a != tree::invalid_node;
       a = tree.node(a).parent) {
    entries[a].valid = false;
  }
}

void session_state::reset_all() {
  entries.clear();
  entries.shrink_to_fit();
  has_options_fp = false;
  has_library_fp = false;
  devices.clear();
  devices.shrink_to_fit();
  memo_lib = 0;
  placed.clear();
  placed.shrink_to_fit();
  design.clear();
  arena.reset();
  mem.begin_run();
}

void session_state::prepare(const tree::routing_tree& tree,
                            const stat_options& options) {
  if (entries.size() < tree.num_nodes()) entries.resize(tree.num_nodes());
  if (lists.size() < tree.num_nodes()) lists.resize(tree.num_nodes());

  const std::uint64_t ofp = fingerprint_stat_options(options);
  if (has_options_fp && ofp != options_fp) flush_entries();
  options_fp = ofp;
  has_options_fp = true;

  const std::uint64_t lfp = fingerprint_library(options.library);
  if (has_library_fp && lfp != library_fp) {
    devices.clear();
    memo_lib = 0;
  }
  library_fp = lfp;
  has_library_fp = true;

  const std::size_t lib = options.library.size();
  if (memo_lib != lib) {
    devices.clear();
    memo_lib = lib;
  }
  if (devices.size() < tree.num_nodes() * lib) {
    devices.resize(tree.num_nodes() * lib);
  }
  track_placements(tree);
}

void session_state::track_placements(const tree::routing_tree& tree) {
  if (placed.size() == tree.num_nodes() &&
      placed_topology == tree.topology_edits()) {
    return;
  }
  // Nothing is cached before the first scan: it only records.
  const bool first = placed.empty();
  placed.resize(tree.num_nodes());
  const auto place = [&](tree::node_id id, placement now) {
    placement& was = placed[id];
    if (was == now) return;
    if (!first) {
      if (was.parent != tree::invalid_node && was.parent < tree.num_nodes()) {
        invalidate_path(tree, was.parent);
      }
      if (now.parent != tree::invalid_node) invalidate_path(tree, now.parent);
    }
    was = now;
  };
  for (tree::node_id id = 0; id < tree.num_nodes(); ++id) {
    const auto& n = tree.node(id);
    for (std::uint32_t slot = 0; slot < n.children.size(); ++slot) {
      place(n.children[slot], {id, slot});
    }
    // A pruned subtree's root hangs under nothing.
    if (n.parent == tree::invalid_node) place(id, {});
  }
  placed_topology = tree.topology_edits();
}

std::size_t session_state::mark(const tree::routing_tree& tree,
                                bool use_cache) {
  std::size_t hits = 0;
  order.clear();
  std::vector<tree::node_id> stack{tree.root()};
  while (!stack.empty()) {
    const tree::node_id id = stack.back();
    stack.pop_back();
    const cache_entry& e = entries[id];
    if (use_cache && e.valid && e.hash == tree.subtree_hash(id) &&
        e.wire_um == tree.node(id).parent_wire_um) {
      lists[id].cands = e.list.cands;
      ++hits;
      continue;
    }
    order.push_back(id);
    for (const tree::node_id c : tree.node(id).children) stack.push_back(c);
  }
  std::reverse(order.begin(), order.end());
  return hits;
}

void session_state::refresh_devices(const tree::routing_tree& tree,
                                    const stat_options& options) {
  const std::size_t lib = options.library.size();
  for (const tree::node_id id : order) {
    const auto& n = tree.node(id);
    if (n.is_source()) continue;
    device_entry* row = &devices[static_cast<std::size_t>(id) * lib];
    if (std::all_of(row, row + lib, [&n](const device_entry& e) {
          return e.valid && e.loc == n.location;
        })) {
      continue;
    }
    for (timing::buffer_index b = 0; b < lib; ++b) {
      row[b].dv = characterize_device(*model, tree, id, options.library[b]);
      row[b].loc = n.location;
      row[b].valid = true;
    }
    // Every entry whose subtree holds this node was built on the replaced
    // forms, and an undo would restore their hashes.
    invalidate_path(tree, id);
  }
}

node_list session_state::store(const tree::routing_tree& tree,
                               tree::node_id id, node_list&& solved) {
  cache_entry& e = entries[id];
  // A fresh, exactly-sized copy of the candidates for the entry; the slab
  // moves in, so the returned view keeps borrowing it.
  e.list = node_list{solved.cands, std::move(solved.slab)};
  e.hash = tree.subtree_hash(id);
  e.wire_um = tree.node(id).parent_wire_um;
  e.valid = true;
  return {std::move(solved.cands), {}};
}

void session_state::clear_lists(const tree::routing_tree& tree) {
  lists[tree.root()] = node_list{};
  for (const tree::node_id id : order) {
    lists[id] = node_list{};
    for (const tree::node_id c : tree.node(id).children) lists[c] = node_list{};
  }
  order.clear();
}

}  // namespace detail

namespace {

/// One session solve: refreshes the fingerprints, placements and device
/// memo, adopts every cached subtree (none with use_cache false, the
/// solve_cold reference path), and solves the rest through run_serial.
solve_outcome<stat_result> session_entry(detail::session_state& ss,
                                         const tree::routing_tree& tree,
                                         const stat_options& options,
                                         const cancel_token* cancel,
                                         bool use_cache) {
  return detail::stat_entry(tree, *ss.model, options, cancel, [&] {
    const detail::dp_clock::time_point t_start = detail::dp_clock::now();
    ss.prepare(tree, options);
    // Whatever this solve fills of the session's lists table it empties
    // again, however the solve ends.
    struct list_cleanup {
      detail::session_state& ss;
      const tree::routing_tree& tree;
      ~list_cleanup() { ss.clear_lists(tree); }
    } cleanup{ss, tree};
    const std::size_t hits = ss.mark(tree, use_cache);
    ss.refresh_devices(tree, options);
    const detail::session_pass pass{ss, ss.order, use_cache};
    // The session arena is never reset (cached `why` chains live there);
    // the worker memory only recycles its scratch, which no sealed list
    // borrows.
    ss.mem.begin_run();
    stat_result result = detail::run_serial(
        tree, ss.model->space(), options,
        [&ss](tree::node_id id, timing::buffer_index b) {
          return ss.device(id, b);
        },
        ss.arena, ss.mem, ss.lists, &pass, cancel, t_start);
    result.stats.cache_hits = hits;
    result.stats.nodes_reused =
        tree.num_nodes() - tree.num_detached() - ss.order.size();
    return result;
  });
}

}  // namespace

solve_session::solve_session(layout::process_model& model)
    : state_(std::make_unique<detail::session_state>()) {
  state_->model = &model;
}

solve_session::~solve_session() = default;
solve_session::solve_session(solve_session&&) noexcept = default;
solve_session& solve_session::operator=(solve_session&&) noexcept = default;

solve_outcome<stat_result> solve_session::solve(const tree::routing_tree& tree,
                                                const stat_options& options,
                                                const cancel_token* cancel) {
  return session_entry(*state_, tree, options, cancel, true);
}

solve_outcome<stat_result> solve_session::solve_cold(
    const tree::routing_tree& tree, const stat_options& options,
    const cancel_token* cancel) {
  return session_entry(*state_, tree, options, cancel, false);
}

void solve_session::reset() { state_->reset_all(); }

std::size_t solve_session::cached_nodes() const {
  std::size_t n = 0;
  for (const auto& e : state_->entries) n += e.valid ? 1 : 0;
  return n;
}

}  // namespace vabi::core
