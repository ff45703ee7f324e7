// Stack-tree structural join [Al-Khalifa et al., ICDE'02]: given two lists
// of interval labels in document order (potential ancestors and potential
// descendants in ONE color), emit the containment pairs in one merge pass.
// This is the primitive whose cheapness relative to value joins the whole
// paper leans on.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/posting.h"

namespace mctdb::query {

struct StructuralJoinResult {
  /// Descendant entries matched by at least one ancestor.
  std::vector<storage::LabelEntry> descendants;
  /// Ancestor entries with at least one match (semi-join side, used to
  /// reduce the parent binding when a filter branch runs).
  std::vector<storage::LabelEntry> ancestors;
  uint64_t pairs = 0;  ///< total containment pairs seen
};

struct StructuralJoinOptions {
  /// Require desc.level == anc.level + 1 (a parent-child axis step instead
  /// of ancestor-descendant).
  bool parent_child_only = false;
};

/// Both inputs MUST be sorted by `start` and labeled in the same color.
/// Runs in O(|ancestors| + |descendants|) with a stack bounded by tree
/// depth.
StructuralJoinResult StackTreeJoin(
    const std::vector<storage::LabelEntry>& ancestors,
    const std::vector<storage::LabelEntry>& descendants,
    const StructuralJoinOptions& options = {});

}  // namespace mctdb::query
