#include "timing/elmore.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace vabi::timing {

std::size_t buffer_assignment::count() const {
  return static_cast<std::size_t>(
      std::count_if(buffer_at_.begin(), buffer_at_.end(),
                    [](std::int32_t b) { return b != no_buffer; }));
}

elmore_result evaluate_buffered_tree(const tree::routing_tree& tree,
                                     const wire_menu& menu,
                                     const wire_assignment& widths,
                                     const buffer_library& library,
                                     const buffer_assignment& assignment,
                                     double driver_res_ohm,
                                     const device_value_fn& devices) {
  if (assignment.num_nodes() != tree.num_nodes()) {
    throw std::invalid_argument(
        "evaluate_buffered_tree: assignment size mismatch");
  }
  std::vector<double> load(tree.num_nodes(), 0.0);
  std::vector<double> rat(tree.num_nodes(),
                          std::numeric_limits<double>::infinity());

  for (tree::node_id id : tree.postorder()) {
    const auto& n = tree.node(id);
    if (n.is_sink()) {
      load[id] = n.sink_cap_pf;
      rat[id] = n.sink_rat_ps;
    } else {
      double l = 0.0;
      double t = std::numeric_limits<double>::infinity();
      for (tree::node_id c : n.children) {
        const double wl = tree.node(c).parent_wire_um;
        const wire_model& wire = menu[widths.width(c)];
        l += load[c] + wire.wire_cap(wl);                 // eq. 25 / 29
        t = std::min(t, rat[c] - wire.wire_delay(wl, load[c]));  // eq. 26 / 30
      }
      load[id] = l;
      rat[id] = t;
    }
    if (assignment.has_buffer(id)) {
      if (n.is_source()) {
        throw std::invalid_argument(
            "evaluate_buffered_tree: buffer at the source is not legal");
      }
      const buffer_index b = assignment.buffer(id);
      if (b >= library.size()) {
        throw std::out_of_range("evaluate_buffered_tree: bad buffer index");
      }
      device_values dv;
      if (devices) {
        dv = devices(id, b);
      } else {
        dv = {library[b].cap_pf, library[b].delay_ps, library[b].res_ohm};
      }
      rat[id] = rat[id] - dv.delay_ps - dv.res_ohm * load[id];  // eq. 28
      load[id] = dv.cap_pf;                                     // eq. 27
    }
  }

  const tree::node_id root = tree.root();
  return {rat[root] - driver_res_ohm * load[root], load[root]};
}

}  // namespace vabi::timing
