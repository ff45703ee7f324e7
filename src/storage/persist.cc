#include "storage/persist.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/log.h"

namespace mctdb::storage {

namespace {

constexpr char kMagic[8] = {'M', 'C', 'T', 'D', 'B', '2', '\n', '\0'};
constexpr char kMagicV1[8] = {'M', 'C', 'T', 'D', 'B', '1', '\n', '\0'};
constexpr uint64_t kHashSeed = 0xCBF29CE484222325ull;
/// Layout version of the "postidx" section (per-page posting summaries).
constexpr uint32_t kPostingIndexVersion = 1;

/// Incremental FNV-1a over a byte range, seedable for section chaining.
uint64_t HashBytes(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Buffered binary writer over stdio. Every payload byte feeds a running
/// section hash; EndSection emits the hash (itself unhashed) so the reader
/// can verify each section independently. Bytes collect in one
/// kImageIoBufferBytes buffer. The failure seams model a lying disk and
/// act where the buffer drains to the file: FailWrites makes every write
/// error out (detected, -> IoError), LimitBytes silently drops everything
/// past the limit (UNdetected at save time — the checksums catch it at
/// load).
class Writer {
 public:
  explicit Writer(std::FILE* f)
      : f_(f),
        buf_(std::make_unique_for_overwrite<char[]>(kImageIoBufferBytes)) {}
  void U32(uint32_t v) { Bytes(&v, sizeof(v)); }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Bytes(const void* data, size_t n) {
    hash_ = HashBytes(hash_, data, n);
    Raw(data, n);
  }
  /// Writes the running section checksum and starts the next section.
  void EndSection() {
    uint64_t h = hash_;
    hash_ = kHashSeed;
    Raw(&h, sizeof(h));
  }
  void FailWrites() { fail_writes_ = true; }
  void LimitBytes(size_t limit) {
    limit_enabled_ = true;
    limit_ = limit;
  }
  /// Drains the buffer; true when every byte reached the file.
  bool Finish() {
    Drain();
    return ok_;
  }

 private:
  void Raw(const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      if (used_ == kImageIoBufferBytes) Drain();
      const size_t chunk = std::min(n, kImageIoBufferBytes - used_);
      std::memcpy(buf_.get() + used_, p, chunk);
      used_ += chunk;
      p += chunk;
      n -= chunk;
    }
  }
  void Drain() {
    size_t n = used_;
    used_ = 0;
    if (fail_writes_) {
      ok_ = false;
      return;
    }
    if (limit_enabled_) {
      const size_t room = written_ < limit_ ? limit_ - written_ : 0;
      if (n > room) n = room;  // silently short: the disk lied
    }
    written_ += n;
    if (n > 0 && std::fwrite(buf_.get(), 1, n, f_) != n) ok_ = false;
  }

  std::FILE* f_;
  std::unique_ptr<char[]> buf_;
  size_t used_ = 0;
  uint64_t hash_ = kHashSeed;
  size_t written_ = 0;
  size_t limit_ = 0;
  bool limit_enabled_ = false;
  bool fail_writes_ = false;
  bool ok_ = true;
};

/// Buffered reader, the Writer's mirror over one kImageIoBufferBytes
/// buffer.
class Reader {
 public:
  explicit Reader(std::FILE* f)
      : f_(f),
        buf_(std::make_unique_for_overwrite<char[]>(kImageIoBufferBytes)) {}
  uint32_t U32() {
    uint32_t v = 0;
    Bytes(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Bytes(&v, sizeof(v));
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (n > (1u << 28)) {  // corrupt length guard
      ok_ = false;
      return {};
    }
    std::string s(n, '\0');
    Bytes(s.data(), n);
    return s;
  }
  void Bytes(void* out, size_t n) {
    char* p = static_cast<char*>(out);
    while (n > 0) {
      const size_t chunk = std::min(n, kImageIoBufferBytes);
      const char* src = Take(chunk);
      if (src == nullptr) return;
      std::memcpy(p, src, chunk);
      p += chunk;
      n -= chunk;
    }
  }
  /// Consumes `n` <= kImageIoBufferBytes bytes and returns them in place,
  /// valid until the next read; nullptr (and !ok()) past the end.
  const char* Take(size_t n) {
    const char* p = Raw(n);
    if (p != nullptr) hash_ = HashBytes(hash_, p, n);
    return p;
  }
  /// Verifies the section checksum the writer emitted at this position.
  /// OK, or DataLoss naming the section on truncation/mismatch.
  Status CheckSection(const char* name) {
    uint64_t computed = hash_;
    hash_ = kHashSeed;
    uint64_t stored = 0;
    const char* p = Raw(sizeof(stored));
    if (p == nullptr) {
      return Status::DataLoss(std::string("truncated in section '") + name +
                              "'");
    }
    std::memcpy(&stored, p, sizeof(stored));
    if (stored != computed) {
      return Status::DataLoss(std::string("section '") + name +
                              "' checksum mismatch");
    }
    return Status::OK();
  }
  /// Injected-truncation seam: reads past `limit` bytes behave as EOF.
  void LimitBytes(size_t limit) {
    limit_enabled_ = true;
    limit_ = limit;
  }
  bool ok() const { return ok_; }

 private:
  const char* Raw(size_t n) {
    if (!ok_) return nullptr;
    if ((limit_enabled_ && read_ + n > limit_) ||
        (end_ - pos_ < n && !Refill(n))) {
      ok_ = false;
      return nullptr;
    }
    const char* p = buf_.get() + pos_;
    pos_ += n;
    read_ += n;
    return p;
  }
  /// Moves the unread tail to the front and reads until `n` bytes are
  /// buffered; false at end of file.
  bool Refill(size_t n) {
    const size_t left = end_ - pos_;
    std::memmove(buf_.get(), buf_.get() + pos_, left);
    pos_ = 0;
    end_ = left;
    while (end_ < n) {
      const size_t got = std::fread(buf_.get() + end_, 1,
                                    kImageIoBufferBytes - end_, f_);
      if (got == 0) return false;
      end_ += got;
    }
    return true;
  }

  std::FILE* f_;
  std::unique_ptr<char[]> buf_;
  size_t pos_ = 0;  // next unread byte in buf_
  size_t end_ = 0;  // bytes in buf_
  uint64_t hash_ = kHashSeed;
  size_t read_ = 0;
  size_t limit_ = 0;
  bool limit_enabled_ = false;
  bool ok_ = true;
};

}  // namespace

uint64_t SchemaFingerprint(const mct::MctSchema& schema) {
  uint64_t h = Hash64(schema.name());
  h = HashCombine(h, schema.num_colors());
  for (const mct::SchemaOcc& o : schema.occurrences()) {
    h = HashCombine(h, Hash64(uint64_t(o.er_node)));
    h = HashCombine(h, Hash64(uint64_t(o.color)));
    h = HashCombine(h, Hash64(uint64_t(o.parent)));
    h = HashCombine(h, Hash64(uint64_t(o.via_edge)));
  }
  for (const mct::RefEdge& r : schema.ref_edges()) {
    h = HashCombine(h, Hash64(r.attr_name));
    h = HashCombine(h, Hash64(uint64_t(r.from)));
  }
  return h;
}

Status SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? std::string(".")
                                               : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory for sync: " + dir);
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError("directory fsync failed: " + dir);
  return Status::OK();
}

Status SaveStore(const MctStore& store, const std::string& path, bool sync) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::setvbuf(f, nullptr, _IONBF, 0);  // Writer does the buffering
  Writer w(f);
  int injected_errno = 0;
  switch (MCTDB_FAILPOINT("persist.save")) {
    case failpoint::Fault::kError:
      // Every write errors out, as on a full or failing disk.
      w.FailWrites();
      break;
    case failpoint::Fault::kEnospc:
      // Same detected-failure shape, but errno-faithful: the caller sees
      // the exact status a real full disk would produce.
      w.FailWrites();
      injected_errno = ENOSPC;
      break;
    case failpoint::Fault::kEio:
      w.FailWrites();
      injected_errno = EIO;
      break;
    case failpoint::Fault::kTruncate:
      // The disk accepts 4 KB then silently drops the rest; Save reports
      // success and only the load-time checksums expose the loss.
      w.LimitBytes(4096);
      break;
    case failpoint::Fault::kNone:
      break;
  }
  w.Bytes(kMagic, sizeof(kMagic));
  w.U64(SchemaFingerprint(*store.schema_));
  w.EndSection();

  // Pages.
  w.U32(static_cast<uint32_t>(store.pager_.num_pages()));
  for (PageId p = 0; p < store.pager_.num_pages(); ++p) {
    w.Bytes(store.pager_.RawPage(p), kPageSize);
  }
  w.EndSection();
  // Elements.
  w.U32(static_cast<uint32_t>(store.elements_.size()));
  for (const ElementMeta& m : store.elements_) {
    w.U32(m.er_node);
    w.U32(m.logical);
    w.U32(m.is_copy ? 1 : 0);
  }
  w.EndSection();
  // Attrs: each element's records, in element order.
  for (ElemId id = 0; id < store.elements_.size(); ++id) {
    std::span<const AttrRecord> list = store.attrs(id);
    w.U32(static_cast<uint32_t>(list.size()));
    for (const AttrRecord& a : list) {
      w.U32(a.name_id);
      w.U32(a.value_id);
      w.U32(a.has_content ? 1 : 0);
    }
  }
  w.EndSection();
  // Dictionaries.
  w.U32(static_cast<uint32_t>(store.attr_names_.size()));
  for (const std::string& s : store.attr_names_) w.Str(s);
  w.U32(static_cast<uint32_t>(store.values_.size()));
  for (const std::string& s : store.values_) w.Str(s);
  w.EndSection();
  // Labels and parents per color, in element order: the same records and
  // counts as any other order, and the image bytes depend only on the
  // store's contents.
  w.U32(static_cast<uint32_t>(store.placements_.size()));
  for (const ColorPlacements& placed : store.placements_) {
    w.U32(static_cast<uint32_t>(placed.num_labels));
    for (const ColorPlacements::Slot& slot : placed.slots) {
      if (slot.label.elem != kInvalidElem) {
        w.Bytes(&slot.label, sizeof(slot.label));
      }
    }
    w.U32(static_cast<uint32_t>(placed.num_parents));
    for (ElemId elem = 0; elem < placed.slots.size(); ++elem) {
      if (placed.slots[elem].parent == kInvalidElem) continue;
      w.U32(elem);
      w.U32(placed.slots[elem].parent);
    }
  }
  w.EndSection();
  // Postings.
  for (size_t c = 0; c < store.postings_.size(); ++c) {
    for (size_t tag = 0; tag < store.postings_[c].size(); ++tag) {
      const auto& meta = store.postings_[c][tag];
      if (meta == nullptr) {
        w.U32(0xFFFFFFFFu);
        continue;
      }
      w.U32(static_cast<uint32_t>(meta->count));
      w.U32(static_cast<uint32_t>(meta->pages.size()));
      for (PageId p : meta->pages) w.U32(p);
    }
  }
  w.EndSection();
  // Posting interval index: per-(color, tag) page summaries (first start,
  // max end) behind the cursors' index-assisted seeks. Versioned and
  // checksummed as its own section so index damage is isolated from the
  // posting data itself.
  w.U32(kPostingIndexVersion);
  for (size_t c = 0; c < store.postings_.size(); ++c) {
    for (size_t tag = 0; tag < store.postings_[c].size(); ++tag) {
      const auto& meta = store.postings_[c][tag];
      if (meta == nullptr) continue;
      w.U32(static_cast<uint32_t>(meta->summaries.size()));
      for (const PostingPageSummary& s : meta->summaries) {
        w.U32(s.first_start);
        w.U32(s.max_end);
      }
    }
  }
  w.EndSection();
  // Counters.
  w.U64(store.num_attribute_nodes_);
  w.U64(store.num_content_nodes_);
  w.EndSection();

  bool ok = w.Finish();
  if (ok && sync) {
    if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) ok = false;
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    if (injected_errno != 0) {
      return Status::IoError("write failed: " + path + ": " +
                             std::strerror(injected_errno));
    }
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

Result<std::unique_ptr<MctStore>> LoadStore(const mct::MctSchema& schema,
                                            const std::string& path,
                                            const StoreOptions& options) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::setvbuf(f, nullptr, _IONBF, 0);  // Reader does the buffering
  Reader r(f);
  // Malformed input (wrong file / wrong schema): the caller's mistake.
  auto bad = [&](const std::string& msg) -> Status {
    std::fclose(f);
    return Status::InvalidArgument(path + ": " + msg);
  };
  // Bytes missing or flipped: the file was right once and is damaged now.
  auto lost = [&](const std::string& msg) -> Status {
    std::fclose(f);
    return Status::DataLoss(path + ": " + msg);
  };
  auto check_section = [&](const char* name) -> Status {
    Status s = r.CheckSection(name);
    if (!s.ok()) {
      std::fclose(f);
      return Status::DataLoss(path + ": " + s.message());
    }
    return Status::OK();
  };
  switch (MCTDB_FAILPOINT("persist.load")) {
    case failpoint::Fault::kTruncate: {
      // Read the file as if it were cut in half; exercises the same
      // truncation handling a real short file hits.
      std::fseek(f, 0, SEEK_END);
      long size = std::ftell(f);
      std::fseek(f, 0, SEEK_SET);
      r.LimitBytes(size > 0 ? static_cast<size_t>(size) / 2 : 0);
      break;
    }
    case failpoint::Fault::kError:
      return lost("injected load fault");
    case failpoint::Fault::kEnospc:
      return lost(std::string("read failed: ") + std::strerror(ENOSPC));
    case failpoint::Fault::kEio:
      return lost(std::string("read failed: ") + std::strerror(EIO));
    case failpoint::Fault::kNone:
      break;
  }

  char magic[8];
  r.Bytes(magic, sizeof(magic));
  if (!r.ok()) return bad("bad magic (file too short)");
  if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    return bad("format version 1 is no longer supported; re-save the store");
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return bad("bad magic");
  }
  if (r.U64() != SchemaFingerprint(schema)) {
    if (!r.ok()) return lost("truncated header");
    return bad("schema fingerprint mismatch");
  }
  MCTDB_RETURN_IF_ERROR(check_section("header"));

  std::unique_ptr<MctStore> store(new MctStore());
  store->schema_ = &schema;

  uint32_t num_pages = r.U32();
  if (!r.ok() || num_pages > (1u << 24)) return lost("bad page count");
  for (uint32_t p = 0; p < num_pages; ++p) {
    const char* page = r.Take(kPageSize);
    if (page == nullptr) return lost("truncated pages");
    store->pager_.Append(page);
  }
  MCTDB_RETURN_IF_ERROR(check_section("pages"));

  uint32_t num_elements = r.U32();
  if (!r.ok() || num_elements > (1u << 28)) {
    return lost("bad element count");
  }
  for (uint32_t i = 0; i < num_elements; ++i) {
    ElementMeta m;
    m.er_node = r.U32();
    m.logical = r.U32();
    m.is_copy = r.U32() != 0;
    if (!r.ok()) return lost("truncated elements");
    if (m.er_node >= schema.diagram().num_nodes()) {
      return lost("bad element record");
    }
    store->elements_.push_back(m);
  }
  MCTDB_RETURN_IF_ERROR(check_section("elements"));

  // Straight into the flat table: one offset per element, the records in
  // element order. Dictionary ids are checked against the dictionaries,
  // which follow.
  uint64_t names_needed = 0;
  uint64_t values_needed = 0;
  std::vector<uint32_t>& offsets = store->attr_offsets_;
  std::vector<AttrRecord>& records = store->attr_records_;
  offsets.assign(size_t{num_elements} + 1, 0);
  for (uint32_t i = 0; i < num_elements; ++i) {
    uint32_t n = r.U32();
    if (!r.ok() || n > (1u << 20)) return lost("bad attr list");
    if (records.size() + n > UINT32_MAX) {
      return lost("attribute record total exceeds the offset range");
    }
    for (uint32_t a = 0; a < n; ++a) {
      AttrRecord& rec = records.emplace_back();
      rec.name_id = r.U32();
      rec.value_id = r.U32();
      rec.has_content = r.U32() != 0;
      names_needed = std::max(names_needed, uint64_t{rec.name_id} + 1);
      values_needed = std::max(values_needed, uint64_t{rec.value_id} + 1);
    }
    if (!r.ok()) return lost("truncated attrs");
    offsets[i + 1] = static_cast<uint32_t>(records.size());
  }
  MCTDB_RETURN_IF_ERROR(check_section("attrs"));

  uint32_t num_names = r.U32();
  if (!r.ok() || num_names > (1u << 26)) return lost("bad name count");
  for (uint32_t i = 0; i < num_names; ++i) {
    store->attr_names_.push_back(r.Str());
    store->attr_name_index_.emplace(store->attr_names_.back(), i);
  }
  uint32_t num_values = r.U32();
  if (!r.ok() || num_values > (1u << 26)) return lost("bad value count");
  for (uint32_t i = 0; i < num_values; ++i) {
    store->values_.push_back(r.Str());
    store->value_index_.emplace(store->values_.back(), i);
  }
  if (!r.ok()) return lost("truncated dictionaries");
  MCTDB_RETURN_IF_ERROR(check_section("dicts"));
  if (names_needed > num_names || values_needed > num_values) {
    return lost("attribute record names a missing dictionary entry");
  }

  uint32_t num_colors = r.U32();
  if (!r.ok()) return lost("truncated colors");
  if (num_colors != schema.num_colors()) return bad("color count mismatch");
  store->placements_.resize(num_colors);
  for (ColorPlacements& placed : store->placements_) {
    uint32_t n = r.U32();
    if (!r.ok() || n > num_elements) return lost("bad label count");
    std::vector<LabelEntry> labels(n);
    r.Bytes(labels.data(), labels.size() * sizeof(LabelEntry));
    if (!r.ok()) return lost("bad label");
    ElemId max_elem = 0;
    for (const LabelEntry& label : labels) {
      if (label.elem >= num_elements) return lost("bad label");
      max_elem = std::max(max_elem, label.elem);
    }
    // Sized once, to the highest placed element.
    if (n > 0) placed.slots.resize(size_t{max_elem} + 1);
    for (const LabelEntry& label : labels) placed.SetLabel(label);
    uint32_t np = r.U32();
    if (!r.ok() || np > num_elements) return lost("bad parent count");
    for (uint32_t i = 0; i < np; ++i) {
      uint32_t elem = r.U32();
      uint32_t parent = r.U32();
      if (!r.ok() || elem >= num_elements || parent >= num_elements) {
        return lost("bad parent");
      }
      placed.SetParent(elem, parent);
    }
  }
  MCTDB_RETURN_IF_ERROR(check_section("labels"));

  store->postings_.resize(num_colors);
  for (uint32_t c = 0; c < num_colors; ++c) {
    store->postings_[c].resize(schema.diagram().num_nodes());
    for (size_t tag = 0; tag < store->postings_[c].size(); ++tag) {
      uint32_t count = r.U32();
      if (count == 0xFFFFFFFFu) continue;
      auto meta = std::make_unique<PostingMeta>();
      meta->count = count;
      uint32_t pages = r.U32();
      if (!r.ok() || pages > num_pages) return lost("bad posting meta");
      if (uint64_t{count} > uint64_t{pages} * kEntriesPerPage) {
        return lost("posting count exceeds its pages");
      }
      for (uint32_t p = 0; p < pages; ++p) {
        uint32_t id = r.U32();
        if (!r.ok()) return lost("truncated postings");
        if (id >= num_pages) return lost("posting page out of range");
        meta->pages.push_back(id);
      }
      store->postings_[c][tag] = std::move(meta);
    }
  }
  MCTDB_RETURN_IF_ERROR(check_section("postings"));

  uint32_t index_version = r.U32();
  if (!r.ok()) return lost("truncated posting index");
  if (index_version != kPostingIndexVersion) {
    return bad("unsupported posting index version");
  }
  for (uint32_t c = 0; c < num_colors; ++c) {
    for (size_t tag = 0; tag < store->postings_[c].size(); ++tag) {
      PostingMeta* meta = store->postings_[c][tag].get();
      if (meta == nullptr) continue;
      uint32_t n = r.U32();
      if (!r.ok()) return lost("truncated posting index");
      if (n != meta->pages.size()) {
        return lost("posting index size mismatch");
      }
      meta->summaries.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        meta->summaries[i].first_start = r.U32();
        meta->summaries[i].max_end = r.U32();
        if (!r.ok()) return lost("truncated posting index");
      }
    }
  }
  MCTDB_RETURN_IF_ERROR(check_section("postidx"));

  store->num_attribute_nodes_ = r.U64();
  store->num_content_nodes_ = r.U64();
  if (!r.ok()) return lost("truncated trailer");
  MCTDB_RETURN_IF_ERROR(check_section("counters"));
  std::fclose(f);

  store->BuildKeyIndex();
  store->pool_ = std::make_unique<ShardedBufferPool>(
      &store->pager_, options.buffer_pool_pages, /*num_shards=*/1);
  return store;
}

Result<std::unique_ptr<MctStore>> LoadStoreWithRetry(
    const mct::MctSchema& schema, const std::string& path,
    const StoreOptions& options, const RetryPolicy& policy,
    uint64_t* retries) {
  std::chrono::microseconds backoff = policy.initial_backoff;
  Result<std::unique_ptr<MctStore>> result = LoadStore(schema, path, options);
  for (int attempt = 1;
       attempt < policy.max_attempts && !result.ok() &&
       IsRetryable(result.status());
       ++attempt) {
    MCTDB_LOG(kWarn, "persist", "load failed, retrying",
              {{"path", path},
               {"attempt", int64_t{attempt}},
               {"status", result.status().ToString()}});
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    auto next = std::chrono::microseconds(static_cast<int64_t>(
        static_cast<double>(backoff.count()) * policy.multiplier));
    backoff = next < policy.max_backoff ? next : policy.max_backoff;
    if (retries != nullptr) ++*retries;
    result = LoadStore(schema, path, options);
  }
  return result;
}

}  // namespace mctdb::storage
