#include "wal/checkpoint.h"

#include <vector>

namespace mctdb::wal {

using storage::ElemId;
using storage::LabelEntry;

Result<std::unique_ptr<storage::MctStore>> CompactStore(
    const storage::MctStore& src, const storage::StoreOptions& options) {
  const mct::MctSchema& schema = src.schema();
  storage::StoreBuilder builder(&schema, options);
  // Source -> compact ids, dense over the source's id spaces. A name or
  // value is interned when first seen, in the order a string-keyed rebuild
  // interned it, so equal stores still compact to equal bytes.
  std::vector<uint32_t> name_ids;
  std::vector<uint32_t> value_ids;
  auto map_id = [](std::vector<uint32_t>* ids, uint32_t id,
                   auto intern) -> uint32_t {
    if (id >= ids->size()) ids->resize(size_t{id} + 1, UINT32_MAX);
    uint32_t& slot = (*ids)[id];
    if (slot == UINT32_MAX) slot = intern();
    return slot;
  };
  std::vector<ElemId> remap(src.num_elements(), storage::kInvalidElem);
  auto map_elem = [&](ElemId old_id) -> ElemId {
    ElemId& new_id = remap[old_id];
    if (new_id != storage::kInvalidElem) return new_id;
    const storage::ElementMeta& meta = src.element(old_id);
    new_id = builder.AddElement(meta.er_node, meta.logical, meta.is_copy);
    for (const storage::AttrRecord& rec : src.attrs(old_id)) {
      const uint32_t name_id = map_id(&name_ids, rec.name_id, [&] {
        return builder.InternAttrName(src.attr_name(rec.name_id));
      });
      // Write the LATEST value through (renames fold into the image).
      uint32_t latest = src.AttrValueId(old_id, rec.name_id);
      if (latest == UINT32_MAX) latest = rec.value_id;
      const uint32_t value_id = map_id(&value_ids, latest, [&] {
        return builder.InternValue(src.value(latest));
      });
      builder.AddAttr(new_id, name_id, value_id, rec.has_content);
    }
    return new_id;
  };
  for (mct::ColorId c = 0; c < schema.num_colors(); ++c) {
    builder.BeginColor(c);
    // Latest-snapshot pre-order of the color: deleted placements are
    // already gone, inserted ones appear at their merged position.
    std::vector<LabelEntry> entries = src.ColorEntries(c);
    std::vector<LabelEntry> open;
    for (const LabelEntry& e : entries) {
      while (!open.empty() && open.back().end < e.start) {
        builder.Leave(remap[open.back().elem]);
        open.pop_back();
      }
      builder.Enter(map_elem(e.elem));
      open.push_back(e);
    }
    while (!open.empty()) {
      builder.Leave(remap[open.back().elem]);
      open.pop_back();
    }
    builder.EndColor();
  }
  return builder.Finish();
}

}  // namespace mctdb::wal
