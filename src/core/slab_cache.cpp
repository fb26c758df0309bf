#include "core/slab_cache.hpp"

#include <chrono>
#include <cstring>
#include <utility>

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

node_list clone_node_list(const node_list& src) {
  node_list out;
  // Shallow candidate copy: borrowed forms still point into src's slab,
  // owned/inline forms and why/moment caches copy through.
  out.cands = src.cands;
  // The sealed-prefix size: exactly the `total` seal() computed, because
  // after relocation every non-owned form of a sealed list borrows this slab
  // and every borrowed-but-small form went inline.
  std::size_t used = 0;
  for (const auto& c : src.cands) {
    if (!c.load.owns_terms() &&
        c.load.num_terms() > stats::linear_form::inline_capacity) {
      used += c.load.num_terms();
    }
    if (!c.rat.owns_terms() &&
        c.rat.num_terms() > stats::linear_form::inline_capacity) {
      used += c.rat.num_terms();
    }
  }
  if (used == 0) return out;
  const stats::lf_term* old_base = src.slab.data();
  stats::lf_term* new_base = out.slab.ensure(used);
  std::memcpy(new_base, old_base, used * sizeof(stats::lf_term));
  for (auto& c : out.cands) {
    c.load.rebase_terms(old_base, used, new_base);
    c.rat.rebase_terms(old_base, used, new_base);
  }
  return out;
}

void session_state::flush_entries() {
  for (auto& e : entries) e.valid = false;
}

void session_state::reset_all() {
  entries.clear();
  entries.shrink_to_fit();
  has_options_fp = false;
  has_library_fp = false;
  devices.clear();
  devices.shrink_to_fit();
  memo_lib = 0;
  arena.reset();
  mem.begin_run();
  workers.clear();
}

void session_state::prepare(const tree::routing_tree& tree,
                            const stat_options& options) {
  if (entries.size() < tree.num_nodes()) entries.resize(tree.num_nodes());

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

  // Warm the subtree hashes now: mark() and concurrent store() calls then
  // only read them.
  tree.ensure_subtree_hashes();

  const std::size_t lib = options.library.size();
  if (memo_lib != lib) {
    devices.clear();
    memo_lib = lib;
  }
  if (devices.size() < tree.num_nodes() * lib) {
    devices.resize(tree.num_nodes() * lib);
  }
  // Fill missing/moved entries in the serial engine's lazy order (postorder,
  // types ascending): on a fresh session the source-id allocation therefore
  // matches a one-shot solve on a fresh model exactly, and every later
  // solve -- serial, parallel, warm or cold -- reads the same memo.
  for (const tree::node_id id : tree.postorder()) {
    const auto& n = tree.node(id);
    if (n.is_source()) continue;
    bool fresh = false;
    for (std::size_t b = 0; b < lib; ++b) {
      const auto& e = devices[static_cast<std::size_t>(id) * lib + b];
      if (!e.valid || e.loc != n.location) {
        fresh = true;
        break;
      }
    }
    if (!fresh) continue;
    for (timing::buffer_index b = 0; b < lib; ++b) {
      auto& e = devices[static_cast<std::size_t>(id) * lib + b];
      e.dv = characterize_device(*model, tree, id, options.library[b]);
      e.loc = n.location;
      e.valid = true;
    }
  }
}

session_state::mark_result session_state::mark(const tree::routing_tree& tree,
                                               std::vector<node_list>& lists,
                                               bool use_cache) const {
  mark_result r;
  r.marked.assign(tree.num_nodes(), 0);
  std::vector<tree::node_id> stack{tree.root()};
  while (!stack.empty()) {
    const tree::node_id id = stack.back();
    stack.pop_back();
    if (use_cache && id < entries.size() && entries[id].valid &&
        entries[id].hash == tree.subtree_hash(id)) {
      lists[id] = clone_node_list(entries[id].list);
      ++r.hits;
      r.reused += tree.subtree_size(id);
      continue;
    }
    r.marked[id] = 1;
    for (const tree::node_id c : tree.node(id).children) stack.push_back(c);
  }
  return r;
}

void session_state::store(tree::node_id id, std::uint64_t hash,
                          const node_list& solved) {
  cache_entry& e = entries[id];
  e.list = clone_node_list(solved);
  e.hash = hash;
  e.valid = true;
}

stat_result session_solve(session_state& ss, const tree::routing_tree& tree,
                          const stat_options& options, thread_pool* pool,
                          const cancel_token* cancel, bool use_cache) {
  const dp_clock::time_point t_start = dp_clock::now();
  ss.prepare(tree, options);
  std::vector<node_list> lists(tree.num_nodes());
  const auto marks = ss.mark(tree, lists, use_cache);
  const session_pass pass{ss, marks.marked, use_cache};

  stat_result result;
  if (pool != nullptr && marks.marked[tree.root()] != 0) {
    result = session_solve_parallel(pass, tree, options, *pool, cancel,
                                    std::move(lists), t_start);
  } else {
    // Serial solve, or a parallel one whose whole tree was adopted: only
    // the root selection is left, which runs here like the one-task DAG it
    // replaces. The session arena is never reset (cached `why` chains live
    // there); the worker memory only recycles its scratch, which no sealed
    // list borrows.
    ss.mem.begin_run();
    result = run_serial(
        tree, ss.model->space(), options,
        [&ss](tree::node_id id, timing::buffer_index b) {
          return ss.device(id, b);
        },
        ss.arena, ss.mem, lists, &pass, cancel, t_start);
  }
  result.stats.cache_hits = marks.hits;
  result.stats.nodes_reused = marks.reused;
  result.stats.wall_seconds =
      std::chrono::duration<double>(dp_clock::now() - t_start).count();
  return result;
}

}  // namespace detail

namespace {

solve_outcome<stat_result> session_entry(detail::session_state& ss,
                                         const tree::routing_tree& tree,
                                         const stat_options& options,
                                         const cancel_token* cancel,
                                         thread_pool* pool, bool use_cache) {
  return detail::stat_entry(tree, *ss.model, options, cancel, [&] {
    return detail::session_solve(ss, tree, options, pool, cancel, use_cache);
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
  return session_entry(*state_, tree, options, cancel, nullptr, true);
}

solve_outcome<stat_result> solve_session::solve_parallel(
    const tree::routing_tree& tree, const stat_options& options,
    thread_pool& pool, const cancel_token* cancel) {
  return session_entry(*state_, tree, options, cancel, &pool, true);
}

solve_outcome<stat_result> solve_session::solve_cold(
    const tree::routing_tree& tree, const stat_options& options,
    const cancel_token* cancel) {
  return session_entry(*state_, tree, options, cancel, nullptr, false);
}

void solve_session::reset() { state_->reset_all(); }

std::size_t solve_session::cached_nodes() const {
  std::size_t n = 0;
  for (const auto& e : state_->entries) n += e.valid ? 1 : 0;
  return n;
}

layout::process_model& solve_session::model() { return *state_->model; }

}  // namespace vabi::core
