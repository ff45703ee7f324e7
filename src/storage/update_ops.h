// The paper's update operations U1-U3 as logical redo ops (DESIGN.md §13).
//
// An UpdateOp identifies its targets by (ER node, logical instance id) —
// never by stored ElemId — because checkpoint compaction remaps element
// ids. New instances created by an insert carry caller-assigned logical
// ids inside the op payload, so applying an op is a pure deterministic
// function of (store state, op): the live write path and recovery replay
// run the exact same code and land in the exact same state.
//
//   U1 kInsertSubtree: a subtree of NEW logical instances is attached under
//      one existing parent instance via one ER edge. The applier places the
//      subtree at every structural realization of that edge (every color,
//      every live placement of the parent — the ICIC maintenance of §6.1),
//      at every root occurrence of the subtree type (flat colors), and
//      fills in idref attributes for ref-edge realizations.
//   U2 kDeleteSubtree: every placement of the target instance disappears,
//      together with everything inside its intervals (per color); elements
//      that lose all placements die.
//   U3 kRenameValue: one attribute of the target instance takes a new
//      value on every stored element (copies included — the dup_updates
//      price of non-NN schemas).
//
// Both U1 and U2 find what lies inside an interval by the color's base
// placements in start order (StoreDeltas::base_order) plus the color's
// inserted placements, so an op reads its subtrees and the inserts since
// the last checkpoint, not the whole store (ApplyStats::placements_visited).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/lsn.h"
#include "common/result.h"
#include "er/er_model.h"
#include "mct/mct_schema.h"

namespace mctdb::storage {

class MctStore;

/// A subtree of new instances for U1, in nesting order. Attribute lists
/// must include the type's key attribute; idref attributes are added by
/// the applier per schema and must NOT appear here (ops are
/// schema-independent).
struct SubtreeSpec {
  er::NodeId type = er::kInvalidNode;
  /// New logical id, assigned by the op creator, unused in the store.
  uint32_t logical = 0;
  struct Attr {
    std::string name;
    std::string value;
    bool with_content = false;
  };
  std::vector<Attr> attrs;
  std::vector<SubtreeSpec> children;
};

struct UpdateOp {
  enum class Kind : uint8_t {
    kInsertSubtree = 1,
    kDeleteSubtree = 2,
    kRenameValue = 3,
  };
  Kind kind = Kind::kRenameValue;

  /// U1: the existing parent instance; U2: the doomed instance; U3: the
  /// renamed instance.
  er::NodeId target_type = er::kInvalidNode;
  uint32_t target_logical = 0;

  /// U1 payload.
  SubtreeSpec subtree;

  /// U3 payload.
  std::string attr;
  std::string new_value;
};

/// "U1" / "U2" / "U3" — the paper's names, used in measurement rows.
const char* UpdateKindName(UpdateOp::Kind kind);
std::string DebugString(const UpdateOp& op);

/// WAL payload codec: length-prefixed little-endian binary. Decode returns
/// Corruption on malformed bytes (record checksums catch torn writes
/// before this layer ever sees them, so Corruption here means a version
/// mismatch or a real bug).
void EncodeUpdateOp(const UpdateOp& op, std::string* out);
Result<UpdateOp> DecodeUpdateOp(std::string_view payload);

/// Static admissibility of `op` under `schema` (no instance access): the
/// realized ER edges exist, every occurrence of an inserted type is either
/// a root or nested under the spec parent's type (the supported class —
/// anything else would need placements the applier cannot derive), renames
/// never touch key attributes. The plan-verifier rules
/// (analysis::VerifyUpdateOp) wrap this into a DiagnosticReport.
Status VerifyUpdateOp(const mct::MctSchema& schema, const UpdateOp& op);

struct ApplyStats {
  size_t elements_touched = 0;
  size_t labels_touched = 0;
  size_t colors_touched = 0;
  /// Smallest residual interval-label headroom this op left behind: for
  /// every bounded (parent-anchored) placement, the free label values
  /// remaining in the gap after the group landed, minimized across
  /// placements. UINT32_MAX when the op made no bounded placement. The
  /// maintenance layer watches this as its gap-pressure trigger — a low
  /// value means the next insert under the same parent is close to
  /// ResourceExhausted.
  uint32_t min_free_gap = UINT32_MAX;
  /// Placements the op read while holding the delta lock: per color, the
  /// base placements inside each target interval (a delete's subtrees, an
  /// insert's parent placements) plus every placement inserted since the
  /// last checkpoint. Never the color's other base placements.
  size_t placements_visited = 0;
};

/// Applies `op` to the versioned store at `lsn`. The caller serializes
/// appliers (DurableStore's write mutex) and has already made the op
/// durable-or-doomed (WAL append happens first). The store must have
/// versioning enabled.
Result<ApplyStats> ApplyUpdateOp(MctStore* store, const UpdateOp& op,
                                 Lsn lsn);

}  // namespace mctdb::storage
