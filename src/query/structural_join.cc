#include "query/structural_join.h"

#include <algorithm>

namespace mctdb::query {

StructuralJoinResult StackTreeJoin(
    const std::vector<storage::LabelEntry>& ancestors,
    const std::vector<storage::LabelEntry>& descendants,
    const StructuralJoinOptions& options) {
  StructuralJoinResult out;
  // Stack of open ancestor intervals (nested by construction). For each
  // descendant, the matching ancestors are exactly the stack contents.
  std::vector<storage::LabelEntry> stack;
  std::vector<bool> stack_matched;

  size_t ai = 0;
  auto pop_closed = [&](uint32_t before_start) {
    while (!stack.empty() && stack.back().end < before_start) {
      if (stack_matched.back()) out.ancestors.push_back(stack.back());
      stack.pop_back();
      stack_matched.pop_back();
    }
  };

  for (const storage::LabelEntry& d : descendants) {
    // Open every ancestor starting before this descendant.
    while (ai < ancestors.size() && ancestors[ai].start < d.start) {
      pop_closed(ancestors[ai].start);
      stack.push_back(ancestors[ai]);
      stack_matched.push_back(false);
      ++ai;
    }
    pop_closed(d.start);
    bool matched = false;
    for (size_t s = 0; s < stack.size(); ++s) {
      if (stack[s].end < d.end) continue;  // not containing (sibling zone)
      if (options.parent_child_only && d.level != stack[s].level + 1) {
        continue;
      }
      ++out.pairs;
      matched = true;
      stack_matched[s] = true;
      if (!options.parent_child_only) {
        // All further stack entries also contain d (nested intervals), but
        // for the binding semantics one match suffices; still count pairs.
        for (size_t t = s + 1; t < stack.size(); ++t) {
          if (stack[t].end > d.end) {
            ++out.pairs;
            stack_matched[t] = true;
          }
        }
        break;
      }
    }
    if (matched) out.descendants.push_back(d);
  }
  pop_closed(UINT32_MAX);
  std::sort(out.ancestors.begin(), out.ancestors.end(),
            [](const storage::LabelEntry& a, const storage::LabelEntry& b) {
              return a.start < b.start;
            });
  return out;
}

}  // namespace mctdb::query
