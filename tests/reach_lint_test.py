#!/usr/bin/env python3
"""Runs the checking half of tests/reach_lint.py on canned nm listings, so
the lint's logic is tested without the dead-code-eliminating build it reads:

  - clean: every program-unreached function is allowlisted (exit 0), and
    template instantiations, lambdas, constructors, destructors, operator=
    and std:: instantiations reduce to the expected keys or drop out;
  - a test-only function missing from the allowlist (exit 1, named);
  - a stale allowlist entry (exit 1, named), and an entry without a reason.

Usage: tests/reach_lint_test.py
"""

import sys
from pathlib import Path

# Importing the lint must leave no __pycache__/ in the source tree.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import reach_lint  # noqa: E402

VEC = "std::vector<vabi::core::stat_candidate, " \
      "std::allocator<vabi::core::stat_candidate> >"

KEPT = [
    "vabi::core::prune_two_param(vabi::core::two_param_rule const&, "
    f"{VEC}&, vabi::stats::variation_space const&, vabi::core::dp_stats&, "
    "vabi::core::prune_scratch*)",
    "vabi::core::solve_outcome<vabi::core::stat_result>::code() const",
    "std::ostream::operator<<(double)",
]

CANDIDATES = KEPT + [
    # Other instantiations of a template a program keeps.
    "vabi::core::solve_outcome<vabi::core::det_result>::code() const",
    # Skipped outright.
    "vabi::core::det_result::det_result()",
    "vabi::core::det_result::~det_result()",
    "vabi::core::det_result::operator=(vabi::core::det_result&&)",
    f"void {VEC}::_M_realloc_insert<vabi::core::stat_candidate>"
    f"(__gnu_cxx::__normal_iterator<vabi::core::stat_candidate*, {VEC} >, "
    "vabi::core::stat_candidate&&)",
    "vabi::core::stat_candidate* std::__do_uninit_copy<"
    "vabi::core::stat_candidate const*, vabi::core::stat_candidate*>("
    "vabi::core::stat_candidate const*, vabi::core::stat_candidate const*, "
    "vabi::core::stat_candidate*)",
    # Program-unreached: one template key for two instantiations, one of
    # them over a test type.
    "bool vabi::core::is_mutually_non_dominated<vabi::core::two_param_rule>"
    f"(vabi::core::two_param_rule const&, {VEC} const&, "
    "vabi::stats::variation_space const&)",
    "bool vabi::core::is_mutually_non_dominated<vabi::core::(anonymous "
    "namespace)::Rule_Test::TestBody()::{lambda()#1}>(vabi::core::(anonymous "
    "namespace)::Rule_Test::TestBody()::{lambda()#1} const&, "
    f"{VEC} const&, vabi::stats::variation_space const&)",
    # An operator, and a function with the lambda it holds.
    "vabi::stats::operator<<(std::ostream&, vabi::stats::linear_form const&)",
    "vabi::stats::linear_form::coefficient(unsigned int) const",
    "vabi::stats::linear_form::coefficient(unsigned int) const::{lambda("
    "vabi::stats::lf_term const&, unsigned int)#1}::operator()("
    "vabi::stats::lf_term const&, unsigned int) const",
    # An ABI tag.
    "vabi::analysis::text_table::to_string[abi:cxx11]() const",
]

ALLOWED = [
    "vabi::analysis::text_table::to_string() const",
    "vabi::core::is_mutually_non_dominated<>",
    "vabi::stats::linear_form::coefficient(unsigned int) const",
    "vabi::stats::operator<<(ostream&, linear_form const&)",
]

ALLOWLIST = "# canned allowlist\n" + "".join(
    f"{k}  # canned reason\n" for k in ALLOWED)

UNLISTED = "vabi::tree::routing_tree::subtree_size(unsigned int) const"
STALE = "vabi::stats::monte_carlo_sampler::draw_many(unsigned long)"


def run(what, candidates, allowlist, want_status, want_lines):
    lines, status = reach_lint.check(set(candidates), set(KEPT), allowlist)
    missing = [w for w in want_lines if w not in lines]
    ok = status == want_status and not missing
    print(f"{'ok' if ok else 'FAIL'}: {what}: exit {status} "
          f"(want {want_status})")
    for w in missing:
        print(f"  missing line: {w}")
    if not ok:
        print("  report:\n    " + "\n    ".join(lines))
    return ok


def main():
    cases = [
        ("clean", CANDIDATES, ALLOWLIST, 0,
         [f"  allowed: {k}" for k in ALLOWED]
         + [f"reach_lint: {len(ALLOWED)} functions no program keeps, "
            f"{len(ALLOWED)} allowlisted: ok"]),
        ("unlisted test-only function", CANDIDATES + [UNLISTED], ALLOWLIST, 1,
         [f" unlisted: {UNLISTED}"]),
        ("stale entry", CANDIDATES, ALLOWLIST + f"{STALE}  # deleted\n", 1,
         [f"    stale: {STALE}  (no program-unreached function by that "
          "key; delete the entry)"]),
        ("entry without a reason", CANDIDATES,
         ALLOWLIST.replace("  # canned reason", "", 1), 1,
         [f"no reason: {ALLOWED[0]}"]),
    ]
    # The clean case's summary line pins the count: its report holds the
    # allowlisted keys and nothing else.
    results = [run(*case) for case in cases]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
