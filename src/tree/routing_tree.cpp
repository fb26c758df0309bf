#include "tree/routing_tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "stats/fnv1a.hpp"

namespace vabi::tree {

using stats::fnv1a_f64;
using stats::fnv1a_u64;

// The checked() bit lives in padding: two vectors, two counters, then
// hashes_valid_, the bit and topology_edits_ in one 8-byte word (72 bytes on
// x86-64).
static_assert(sizeof(routing_tree) == 2 * sizeof(std::vector<tree_node>) +
                                          2 * sizeof(std::size_t) + 8);

const char* to_string(node_kind kind) {
  switch (kind) {
    case node_kind::source:
      return "source";
    case node_kind::sink:
      return "sink";
    case node_kind::steiner:
      return "steiner";
  }
  return "unknown";
}

routing_tree::routing_tree(layout::point source_loc) {
  tree_node root;
  root.id = 0;
  root.kind = node_kind::source;
  root.location = source_loc;
  nodes_.push_back(root);
}

node_id routing_tree::add_node(node_kind kind, node_id parent,
                               layout::point loc, double wire_um) {
  if (parent >= nodes_.size()) {
    throw std::out_of_range("routing_tree: invalid parent id");
  }
  if (nodes_[parent].is_sink()) {
    throw std::logic_error("routing_tree: sinks must be leaves");
  }
  tree_node n;
  n.id = static_cast<node_id>(nodes_.size());
  n.kind = kind;
  n.location = loc;
  n.parent = parent;
  n.parent_wire_um =
      wire_um >= 0.0 ? wire_um
                     : layout::manhattan_distance(nodes_[parent].location, loc);
  n.detached = nodes_[parent].detached;
  if (n.detached) ++num_detached_;
  nodes_[parent].children.push_back(n.id);
  nodes_.push_back(n);
  hashes_valid_ = false;
  checked_.set = false;
  return n.id;
}

node_id routing_tree::add_sink(node_id parent, layout::point loc,
                               double cap_pf, double rat_ps, double wire_um) {
  if (cap_pf < 0.0) {
    throw std::invalid_argument("routing_tree: sink capacitance must be >= 0");
  }
  const node_id id = add_node(node_kind::sink, parent, loc, wire_um);
  nodes_[id].sink_cap_pf = cap_pf;
  nodes_[id].sink_rat_ps = rat_ps;
  if (!nodes_[id].detached) ++num_sinks_;
  return id;
}

node_id routing_tree::add_steiner(node_id parent, layout::point loc,
                                  double wire_um) {
  return add_node(node_kind::steiner, parent, loc, wire_um);
}

std::uint64_t routing_tree::compute_subtree_hash(node_id id) const {
  const tree_node& n = nodes_[id];
  std::uint64_t h = stats::fnv1a_seed;
  h = fnv1a_u64(static_cast<std::uint64_t>(n.kind), h);
  h = fnv1a_f64(n.location.x, h);
  h = fnv1a_f64(n.location.y, h);
  h = fnv1a_f64(n.sink_cap_pf, h);
  h = fnv1a_f64(n.sink_rat_ps, h);
  // Each edge is hashed at the parent, not the child: resizing the wire
  // above X changes the hashes of X's ancestors but leaves subtree(X)
  // untouched, which is exactly the set of DP results the edit invalidates.
  for (const node_id c : n.children) {
    h = fnv1a_f64(nodes_[c].parent_wire_um, h);
    h = fnv1a_u64(hashes_[c], h);
  }
  return h;
}

void routing_tree::ensure_subtree_hashes() const {
  if (hashes_valid_ && hashes_.size() == nodes_.size()) return;
  hashes_.assign(nodes_.size(), 0);
  // Children always have larger ids than their parent (graft preserves the
  // invariant), so one descending-id pass is a valid bottom-up order and
  // covers detached subtrees too.
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    hashes_[i] = compute_subtree_hash(static_cast<node_id>(i));
  }
  hashes_valid_ = true;
}

void routing_tree::rehash_upward(node_id id) const {
  while (id != invalid_node) {
    hashes_[id] = compute_subtree_hash(id);
    id = nodes_[id].parent;
  }
}

void routing_tree::apply_edit(const tree_edit& edit) {
  if (edit.node >= nodes_.size()) {
    throw std::out_of_range("apply_edit: invalid node id");
  }
  ensure_subtree_hashes();
  // The tree is unchanged until the edit passes its own checks below, so
  // the bit stays truthful if one of them throws.
  if (!checked_.set) {
    checked_.set =
        structure_error() == nullptr &&
        std::all_of(nodes_.begin(), nodes_.end(),
                    [](const tree_node& m) { return m.inputs_finite(); });
  }
  tree_node& n = nodes_[edit.node];
  node_id rehash_from = edit.node;
  switch (edit.op) {
    case tree_edit::op_kind::move_sink: {
      if (!n.is_sink()) {
        throw std::logic_error("apply_edit: move_sink target is not a sink");
      }
      n.location = edit.location;
      if (n.parent != invalid_node) {
        n.parent_wire_um =
            edit.wire_um >= 0.0
                ? edit.wire_um
                : layout::manhattan_distance(nodes_[n.parent].location,
                                             n.location);
      }
      break;
    }
    case tree_edit::op_kind::retarget_rat: {
      if (!n.is_sink()) {
        throw std::logic_error("apply_edit: retarget_rat target is not a sink");
      }
      n.sink_rat_ps = edit.value;
      break;
    }
    case tree_edit::op_kind::resize_wire: {
      if (n.is_source()) {
        throw std::logic_error("apply_edit: source has no parent wire");
      }
      if (n.parent == invalid_node) {
        throw std::logic_error("apply_edit: detached root has no parent wire");
      }
      if (edit.value < 0.0) {
        throw std::invalid_argument("apply_edit: negative wire length");
      }
      n.parent_wire_um = edit.value;
      // The edge is hashed at the parent; starting the walk at the child is
      // harmless (its own hash is unchanged) and keeps one code path.
      break;
    }
    case tree_edit::op_kind::prune_subtree: {
      if (n.is_source()) {
        throw std::logic_error("apply_edit: cannot prune the source");
      }
      if (n.detached) {
        throw std::logic_error("apply_edit: subtree is already detached");
      }
      const node_id old_parent = n.parent;
      if (old_parent >= nodes_.size()) {
        throw std::logic_error("apply_edit: pruned node has no parent");
      }
      auto& siblings = nodes_[old_parent].children;
      const auto slot = std::find(siblings.begin(), siblings.end(), edit.node);
      if (slot == siblings.end()) {
        throw std::logic_error(
            "apply_edit: parent does not list the pruned node");
      }
      siblings.erase(slot);
      n.parent = invalid_node;
      n.parent_wire_um = 0.0;
      std::vector<node_id> stack{edit.node};
      while (!stack.empty()) {
        tree_node& m = nodes_[stack.back()];
        stack.pop_back();
        m.detached = true;
        ++num_detached_;
        if (m.is_sink()) --num_sinks_;
        for (const node_id c : m.children) stack.push_back(c);
      }
      ++topology_edits_;
      rehash_from = old_parent;
      break;
    }
    case tree_edit::op_kind::graft_subtree: {
      if (!n.detached || n.parent != invalid_node) {
        throw std::logic_error("apply_edit: graft target is not a detached root");
      }
      if (edit.new_parent >= nodes_.size()) {
        throw std::out_of_range("apply_edit: invalid graft parent");
      }
      tree_node& p = nodes_[edit.new_parent];
      if (p.detached) {
        throw std::logic_error("apply_edit: graft parent is detached");
      }
      if (p.is_sink()) {
        throw std::logic_error("apply_edit: sinks must be leaves");
      }
      // Children must keep larger ids than their parents (the anti-cycle
      // invariant every traversal relies on), so a subtree can only be
      // grafted under a lower-numbered node.
      if (edit.new_parent >= edit.node) {
        throw std::logic_error("apply_edit: graft parent id must be less than node id");
      }
      n.parent = edit.new_parent;
      n.parent_wire_um =
          edit.wire_um >= 0.0
              ? edit.wire_um
              : layout::manhattan_distance(p.location, n.location);
      p.children.push_back(edit.node);
      std::vector<node_id> stack{edit.node};
      while (!stack.empty()) {
        tree_node& m = nodes_[stack.back()];
        stack.pop_back();
        m.detached = false;
        --num_detached_;
        if (m.is_sink()) ++num_sinks_;
        for (const node_id c : m.children) stack.push_back(c);
      }
      ++topology_edits_;
      break;
    }
    default:
      throw std::logic_error("apply_edit: unknown edit kind");
  }
  // Every edit writes solve inputs of `n` only, so that node alone can have
  // turned non-finite.
  if (!n.inputs_finite()) checked_.set = false;
  rehash_upward(rehash_from);
}

std::vector<node_id> routing_tree::postorder() const {
  std::vector<node_id> order;
  order.reserve(nodes_.size());
  // Iterative two-stack postorder.
  std::vector<node_id> stack{root()};
  while (!stack.empty()) {
    const node_id id = stack.back();
    stack.pop_back();
    order.push_back(id);
    for (node_id c : nodes_[id].children) stack.push_back(c);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<node_id> routing_tree::sinks() const {
  std::vector<node_id> out;
  out.reserve(num_sinks_);
  for (const auto& n : nodes_) {
    if (n.is_sink() && !n.detached) out.push_back(n.id);
  }
  return out;
}

double routing_tree::total_wire_um() const {
  double total = 0.0;
  for (const auto& n : nodes_) {
    if (!n.detached) total += n.parent_wire_um;
  }
  return total;
}

layout::bbox routing_tree::bounding_box() const {
  layout::bbox box{nodes_.front().location, nodes_.front().location};
  for (const auto& n : nodes_) {
    if (!n.detached) box.expand(n.location);
  }
  return box;
}

const char* routing_tree::structure_error() const {
  if (nodes_.empty() || !nodes_.front().is_source()) {
    return "routing_tree: missing source root";
  }
  std::size_t sink_count = 0;
  std::size_t detached_count = 0;
  // listed[c] counts c's entries in children lists. A child's id is larger
  // than its parent's, so ascending ids see each list before its entries'
  // own checks.
  std::vector<unsigned char> listed(nodes_.size(), 0);
  for (const auto& n : nodes_) {
    if (n.id != static_cast<node_id>(&n - nodes_.data())) {
      return "routing_tree: node id mismatch";
    }
    if (n.detached) ++detached_count;
    if (n.is_source()) {
      if (n.id != 0 || n.parent != invalid_node || n.detached) {
        return "routing_tree: source must be the root";
      }
    } else if (n.parent == invalid_node) {
      if (!n.detached) {
        return "routing_tree: non-root node without a parent";
      }
    } else {
      if (n.parent >= nodes_.size()) {
        return "routing_tree: dangling parent";
      }
      // Children ids are strictly greater than parents by construction (graft
      // re-checks it), which also rules out cycles.
      if (n.parent >= n.id) {
        return "routing_tree: parent id not less than child";
      }
      // Detachment is a subtree property: a node hangs off a detached parent
      // iff it is detached itself.
      if (n.detached != nodes_[n.parent].detached) {
        return "routing_tree: detachment not subtree-consistent";
      }
      if (listed[n.id] == 0) {
        return "routing_tree: parent does not list child";
      }
    }
    if (n.parent_wire_um < 0.0) {
      return "routing_tree: negative wire length";
    }
    if (n.is_sink()) {
      if (!n.detached) ++sink_count;
      if (!n.children.empty()) {
        return "routing_tree: sink with children";
      }
    }
    for (const node_id c : n.children) {
      if (c >= nodes_.size()) {
        return "routing_tree: child id out of range";
      }
      if (nodes_[c].parent != n.id) {
        return "routing_tree: listed child names another parent";
      }
      if (listed[c]++ != 0) {
        return "routing_tree: child listed twice";
      }
    }
  }
  if (sink_count != num_sinks_) {
    return "routing_tree: sink count mismatch";
  }
  if (detached_count != num_detached_) {
    return "routing_tree: detached count mismatch";
  }
  if (num_sinks_ == 0) {
    return "routing_tree: tree has no sinks";
  }
  return nullptr;
}

void routing_tree::validate() const {
  if (const char* why = structure_error()) throw std::logic_error(why);
}

}  // namespace vabi::tree
