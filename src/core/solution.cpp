#include "core/solution.hpp"

#include <algorithm>
#include <vector>

namespace vabi::core {

void dp_stats::merge(const dp_stats& other) {
  for (const stat_counter& c : stat_counters) {
    std::size_t& mine = this->*c.member;
    const std::size_t theirs = other.*c.member;
    mine = c.reduction == stat_reduction::sum ? mine + theirs
                                              : std::max(mine, theirs);
  }
  if (other.aborted && (!aborted || abort_reason == observed_abort)) {
    aborted = true;
    abort_reason = other.abort_reason;
    abort_code = other.abort_code;
    abort_node = other.abort_node;
  }
}

namespace {

/// Depth-first over `root`'s expansion: `visit(d)` returns whether to go on
/// into d's priors. One expansion holds each decision once (a decision
/// covers one subtree, and a design covers each subtree once).
template <class Visit>
void walk(const decision* root, std::vector<const decision*>& stack,
          Visit&& visit) {
  stack.clear();
  if (root != nullptr) stack.push_back(root);
  while (!stack.empty()) {
    const decision* d = stack.back();
    stack.pop_back();
    if (!visit(d)) continue;
    if (d->left != nullptr) stack.push_back(d->left);
    if (d->right != nullptr) stack.push_back(d->right);
  }
}

/// Writes what `d` places into `out` (a buffer or an edge width), or with
/// `on` false takes it back out.
void place(design_choice& out, const decision& d, bool on) {
  switch (d.what) {
    case decision::kind::buffer:
      if (on) {
        out.buffers.place(d.node, d.buffer);
      } else {
        out.buffers.remove(d.node);
      }
      break;
    case decision::kind::wire:
      out.wires.set(d.node,
                    on ? static_cast<timing::width_index>(d.buffer) : 0);
      break;
    case decision::kind::leaf:
    case decision::kind::merge:
      break;
  }
}

}  // namespace

design_choice extract_design(const decision* root, std::size_t num_nodes) {
  design_choice out{timing::buffer_assignment(num_nodes),
                    timing::wire_assignment(num_nodes)};
  std::vector<const decision*> stack;
  walk(root, stack, [&out](const decision* d) {
    place(out, *d, true);
    return true;
  });
  return out;
}

const design_choice& design_memo::extract(const decision* root,
                                          std::size_t num_nodes,
                                          decision_arena& arena) {
  if (root_ == nullptr || design_.buffers.num_nodes() != num_nodes) {
    // Start from the empty design under a stamp no decision carries: the
    // walk from `root` then meets no frontier and places everything.
    root_ = nullptr;
    stamp_ = arena.fresh_mark();
    design_ = {timing::buffer_assignment(num_nodes),
               timing::wire_assignment(num_nodes)};
  }
  const std::uint32_t shared = stamp_ + 1;
  try {
    fresh_.clear();
    frontier_.clear();
    walk(root, stack_, [this](const decision* d) {
      if (d->mark == stamp_) {
        frontier_.push_back(d);
        return false;
      }
      fresh_.push_back(d);
      return true;
    });
    for (const decision* d : frontier_) d->mark = shared;
    walk(root_, stack_, [this, shared](const decision* d) {
      if (d->mark == shared) return false;
      d->mark = 0;
      place(design_, *d, false);
      return true;
    });
    for (const decision* d : frontier_) d->mark = stamp_;
    for (const decision* d : fresh_) {
      d->mark = stamp_;
      place(design_, *d, true);
    }
    root_ = root;
  } catch (...) {
    // Marks may be half rewritten; the next extract starts from scratch
    // under a fresh stamp.
    root_ = nullptr;
    throw;
  }
  return design_;
}

}  // namespace vabi::core
