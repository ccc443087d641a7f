#include "gom/object_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/binary_io.h"
#include "storage/slotted_page.h"

namespace asr::gom {

namespace {

using storage::Page;
using storage::PageGuard;
using storage::PageId;
using storage::SlottedPage;

constexpr uint32_t kOidBytes = 8;
constexpr uint32_t kSetHeaderBytes = kOidBytes + 8;  // oid + count + unused
// High bit of the count field marks a continuation record of a set's
// overflow chain; the low 31 bits are the record's member count.
constexpr uint32_t kContinuationFlag = 0x80000000u;
// Largest record a slotted page can hold.
constexpr uint32_t kMaxRecordBytes =
    storage::kPageSize - SlottedPage::kHeaderSize - SlottedPage::kSlotSize;

uint64_t ReadU64(const std::vector<std::byte>& rec, uint32_t off) {
  uint64_t v;
  std::memcpy(&v, rec.data() + off, 8);
  return v;
}

// Corruption unless record `rec` holds `need` bytes. A lost or zeroed page
// image decodes to records shorter than their fixed layout; reading the
// layout's offsets from them would run off the record.
Status CheckRecordLength(const std::vector<std::byte>& rec, size_t need) {
  if (rec.size() >= need) return Status::OK();
  return Status::Corruption("object record of " + std::to_string(rec.size()) +
                            " bytes, its layout needs " +
                            std::to_string(need));
}

// Bytes a tuple record needs to hold attributes [0, attrs).
size_t TupleBytes(size_t attrs) { return kOidBytes + 8 * attrs; }

void WriteU64(std::vector<std::byte>* rec, uint32_t off, uint64_t v) {
  std::memcpy(rec->data() + off, &v, 8);
}

uint32_t ReadU32(const std::vector<std::byte>& rec, uint32_t off) {
  uint32_t v;
  std::memcpy(&v, rec.data() + off, 4);
  return v;
}

// The count word of set record `rec` (continuation flag included), once the
// record is checked to hold its header and that many members.
Result<uint32_t> SetRecordCount(const std::vector<std::byte>& rec) {
  ASR_RETURN_IF_ERROR(CheckRecordLength(rec, kSetHeaderBytes));
  uint32_t raw = ReadU32(rec, kOidBytes);
  ASR_RETURN_IF_ERROR(CheckRecordLength(
      rec, kSetHeaderBytes + 8 * size_t{raw & ~kContinuationFlag}));
  return raw;
}

void WriteU32(std::vector<std::byte>* rec, uint32_t off, uint32_t v) {
  std::memcpy(rec->data() + off, &v, 4);
}

// Which store (if any) the current thread already holds locked, and how.
// Saved/restored by the guards, so nested guards across different stores
// behave like a stack without materializing one.
enum class LockMode { kNone, kShared, kExclusive };
struct ThreadLockState {
  const void* store = nullptr;
  LockMode mode = LockMode::kNone;
};
thread_local ThreadLockState t_store_lock;

}  // namespace

// Shared (reader) side of the store lock; no-op when this thread already
// holds the store in either mode (a read nested in a scan callback or
// inside a mutation is served by the outer lock).
class ObjectStore::ReadGuard {
 public:
  explicit ReadGuard(const ObjectStore* store) : prev_(t_store_lock) {
    if (t_store_lock.store != store) {
      store->mu_.lock_shared();
      locked_ = store;
      t_store_lock = {store, LockMode::kShared};
    }
  }
  ~ReadGuard() {
    if (locked_ != nullptr) {
      t_store_lock = prev_;
      locked_->mu_.unlock_shared();
    }
  }
  ASR_DISALLOW_COPY_AND_ASSIGN(ReadGuard);

 private:
  ThreadLockState prev_;
  const ObjectStore* locked_ = nullptr;
};

// Exclusive (writer) side. Re-entrant under an exclusive hold; escalating
// from inside a shared hold (a mutation called from a read callback) would
// deadlock or race, so it aborts instead.
class ObjectStore::WriteGuard {
 public:
  explicit WriteGuard(ObjectStore* store) : prev_(t_store_lock) {
    if (t_store_lock.store == store) {
      ASR_CHECK(t_store_lock.mode == LockMode::kExclusive);
      return;
    }
    store->mu_.lock();
    locked_ = store;
    t_store_lock = {store, LockMode::kExclusive};
  }
  ~WriteGuard() {
    if (locked_ != nullptr) {
      t_store_lock = prev_;
      locked_->mu_.unlock();
    }
  }
  ASR_DISALLOW_COPY_AND_ASSIGN(WriteGuard);

 private:
  ThreadLockState prev_;
  ObjectStore* locked_ = nullptr;
};

ObjectStore::ObjectStore(const Schema* schema,
                         storage::BufferManager* buffers)
    : schema_(schema), buffers_(buffers) {}

ObjectStore::TypeState& ObjectStore::State(TypeId type) {
  ASR_CHECK(schema_->IsValidType(type));
  // Growth happens under its own lock so read paths (shared holders of mu_)
  // can materialize a type's slot concurrently; deque references stay
  // stable across emplace_back, so outstanding TypeState& remain valid.
  std::lock_guard<std::mutex> lock(states_mu_);
  while (states_.size() <= type) states_.emplace_back();
  return states_[type];
}

const ObjectStore::TypeState* ObjectStore::StateOrNull(TypeId type) const {
  std::lock_guard<std::mutex> lock(states_mu_);
  if (type >= states_.size()) return nullptr;
  return &states_[type];
}

uint32_t ObjectStore::EnsureSegment(TypeId type) {
  TypeState& state = State(type);
  if (state.segment == UINT32_MAX) {
    if (state.colocate_with != kInvalidTypeId) {
      state.segment = EnsureSegment(state.colocate_with);
    } else {
      state.segment =
          buffers_->disk()->CreateSegment("type:" + schema_->name(type));
    }
  }
  return state.segment;
}

void ObjectStore::ColocateType(TypeId type, TypeId with) {
  WriteGuard store_guard(this);
  TypeState& state = State(type);
  ASR_CHECK(state.locations.empty() && state.segment == UINT32_MAX);
  ASR_CHECK(type != with);
  state.colocate_with = with;
}

void ObjectStore::SetObjectSize(TypeId type, uint32_t bytes) {
  WriteGuard store_guard(this);
  TypeState& state = State(type);
  ASR_CHECK(state.locations.empty());
  ASR_CHECK(bytes <= kMaxRecordBytes);
  state.pad_bytes = bytes;
}

uint32_t ObjectStore::TupleRecordBytes(TypeId type) const {
  uint32_t natural =
      kOidBytes + 8 * static_cast<uint32_t>(schema_->attributes(type).size());
  const TypeState* state = StateOrNull(type);
  uint32_t pad = state != nullptr ? state->pad_bytes : 0;
  return std::max(natural, pad);
}

ObjectStore::Location ObjectStore::PlaceRecord(
    TypeId type, const std::vector<std::byte>& record) {
  uint32_t segment = EnsureSegment(type);
  ASR_CHECK(record.size() <= kMaxRecordBytes);
  uint16_t len = static_cast<uint16_t>(record.size());

  // Try the segment's current fill page, else start a fresh one. Hole reuse
  // inside SlottedPage::Insert keeps same-size-record segments packed after
  // churn.
  auto fill = segment_fill_.find(segment);
  if (fill != segment_fill_.end()) {
    PageGuard guard = buffers_->Pin(PageId{segment, fill->second});
    if (SlottedPage::Fits(guard.page(), len)) {
      int slot = SlottedPage::Insert(&guard.page(), record.data(), len);
      ASR_CHECK(slot >= 0);
      guard.MarkDirty();
      return Location{fill->second, static_cast<uint16_t>(slot), true};
    }
  }
  PageGuard guard = buffers_->AllocatePinned(segment);
  SlottedPage::Init(&guard.page());
  int slot = SlottedPage::Insert(&guard.page(), record.data(), len);
  ASR_CHECK(slot >= 0);
  guard.MarkDirty();
  segment_fill_[segment] = guard.id().page_no;
  return Location{guard.id().page_no, static_cast<uint16_t>(slot), true};
}

Result<Oid> ObjectStore::CreateObject(TypeId tuple_type) {
  WriteGuard store_guard(this);
  if (!schema_->IsValidType(tuple_type) || !schema_->IsTuple(tuple_type)) {
    return Status::TypeError("CreateObject requires a tuple type");
  }
  TypeState& state = State(tuple_type);
  uint64_t seq = state.locations.size() + 1;
  Oid oid = Oid::Make(tuple_type, seq);

  // All attributes start NULL (§2, "instantiation").
  std::vector<std::byte> record(TupleRecordBytes(tuple_type), std::byte{0});
  WriteU64(&record, 0, oid.raw());
  Location loc = PlaceRecord(tuple_type, record);
  state.locations.push_back(loc);
  ++state.live_count;
  return oid;
}

Result<Oid> ObjectStore::CreateList(TypeId list_type) {
  WriteGuard store_guard(this);
  if (!schema_->IsValidType(list_type) || !schema_->IsList(list_type)) {
    return Status::TypeError("CreateList requires a list type");
  }
  // Lists share the collection record format.
  TypeState& state = State(list_type);
  uint64_t seq = state.locations.size() + 1;
  Oid oid = Oid::Make(list_type, seq);
  uint32_t bytes = std::max(kSetHeaderBytes,
                            state.pad_bytes != 0 ? state.pad_bytes : 0u);
  std::vector<std::byte> record(bytes, std::byte{0});
  WriteU64(&record, 0, oid.raw());
  WriteU32(&record, kOidBytes, 0);
  Location loc = PlaceRecord(list_type, record);
  state.locations.push_back(loc);
  ++state.live_count;
  return oid;
}

Result<Oid> ObjectStore::CreateSet(TypeId set_type) {
  WriteGuard store_guard(this);
  if (!schema_->IsValidType(set_type) || !schema_->IsSet(set_type)) {
    return Status::TypeError("CreateSet requires a set type");
  }
  TypeState& state = State(set_type);
  uint64_t seq = state.locations.size() + 1;
  Oid oid = Oid::Make(set_type, seq);

  uint32_t bytes = std::max(kSetHeaderBytes,
                            state.pad_bytes != 0 ? state.pad_bytes : 0u);
  std::vector<std::byte> record(bytes, std::byte{0});
  WriteU64(&record, 0, oid.raw());
  WriteU32(&record, kOidBytes, 0);  // count
  Location loc = PlaceRecord(set_type, record);
  state.locations.push_back(loc);
  ++state.live_count;
  return oid;
}

Result<ObjectStore::Location> ObjectStore::Locate(Oid oid) const {
  if (oid.IsNull()) return Status::InvalidArgument("NULL OID");
  const TypeState* state = StateOrNull(oid.type_id());
  if (state == nullptr || oid.seq() == 0 ||
      oid.seq() > state->locations.size()) {
    return Status::NotFound("unknown object " + oid.ToString());
  }
  Location loc = state->locations[oid.seq() - 1];
  if (!loc.live) return Status::NotFound("deleted object " + oid.ToString());
  return loc;
}

bool ObjectStore::Exists(Oid oid) const {
  ReadGuard store_guard(this);
  return Locate(oid).ok();
}

Status ObjectStore::DeleteObject(Oid oid) {
  WriteGuard store_guard(this);
  Result<Location> loc = Locate(oid);
  ASR_RETURN_IF_ERROR(loc.status());
  TypeState& state = State(oid.type_id());
  {
    PageGuard guard = buffers_->Pin(PageId{state.segment, loc->page_no});
    SlottedPage::Delete(&guard.page(), loc->slot);
    guard.MarkDirty();
  }
  // A set's overflow chain goes with it.
  auto overflow_it = state.overflow.find(oid.seq());
  if (schema_->IsSet(oid.type_id()) && overflow_it != state.overflow.end()) {
    for (const Location& cont : overflow_it->second) {
      PageGuard guard = buffers_->Pin(PageId{state.segment, cont.page_no});
      SlottedPage::Delete(&guard.page(), cont.slot);
      guard.MarkDirty();
    }
    state.overflow.erase(overflow_it);
  }
  state.locations[oid.seq() - 1].live = false;
  --state.live_count;
  return Status::OK();
}

Result<AsrKey> ObjectStore::GetAttribute(Oid oid, uint32_t attr_index) {
  ReadGuard store_guard(this);
  if (oid.IsNull()) return Status::InvalidArgument("NULL OID");
  TypeId type = oid.type_id();
  if (!schema_->IsValidType(type) || !schema_->IsTuple(type)) {
    return Status::TypeError("not a tuple object: " + oid.ToString());
  }
  if (attr_index >= schema_->attributes(type).size()) {
    return Status::OutOfRange("attribute index out of range");
  }
  Result<Location> loc = Locate(oid);
  ASR_RETURN_IF_ERROR(loc.status());
  const TypeState& state = State(type);
  PageGuard guard = buffers_->Pin(PageId{state.segment, loc->page_no});
  std::vector<std::byte> record(
      SlottedPage::RecordLength(guard.page(), loc->slot));
  SlottedPage::Read(guard.page(), loc->slot, record.data());
  ASR_RETURN_IF_ERROR(CheckRecordLength(record, TupleBytes(attr_index + 1)));
  return AsrKey::FromRaw(ReadU64(record, kOidBytes + 8 * attr_index));
}

Result<AsrKey> ObjectStore::GetAttributeByName(Oid oid,
                                               const std::string& attr_name) {
  if (oid.IsNull()) return Status::InvalidArgument("NULL OID");
  Result<uint32_t> idx = schema_->FindAttribute(oid.type_id(), attr_name);
  ASR_RETURN_IF_ERROR(idx.status());
  return GetAttribute(oid, *idx);
}

Status ObjectStore::CheckAttributeValue(TypeId /*tuple_type*/,
                                        const Attribute& attr, AsrKey value) {
  if (value.IsNull()) return Status::OK();
  TypeId range = attr.range_type;
  switch (schema_->kind(range)) {
    case TypeKind::kAtomic: {
      AtomicKind ak = schema_->atomic_kind(range);
      bool ok = (ak == AtomicKind::kString) ? value.IsString() : value.IsInt();
      if (!ok) {
        return Status::TypeError("value does not match atomic type '" +
                                 schema_->name(range) + "' for attribute '" +
                                 attr.name + "'");
      }
      return Status::OK();
    }
    case TypeKind::kTuple: {
      if (!value.IsOid() ||
          !schema_->IsSubtypeOf(value.ToOid().type_id(), range)) {
        return Status::TypeError(
            "reference is not a (subtype) instance of '" +
            schema_->name(range) + "' for attribute '" + attr.name + "'");
      }
      return Status::OK();
    }
    case TypeKind::kSet:
    case TypeKind::kList: {
      // Collection types have no subtypes; the referenced instance must be
      // of the declared type exactly.
      if (!value.IsOid() || value.ToOid().type_id() != range) {
        return Status::TypeError(
            "reference is not an instance of collection type '" +
            schema_->name(range) + "' for attribute '" + attr.name + "'");
      }
      return Status::OK();
    }
  }
  return Status::TypeError("unknown range type kind");
}

Status ObjectStore::SetAttribute(Oid oid, uint32_t attr_index, AsrKey value) {
  WriteGuard store_guard(this);
  if (oid.IsNull()) return Status::InvalidArgument("NULL OID");
  TypeId type = oid.type_id();
  if (!schema_->IsValidType(type) || !schema_->IsTuple(type)) {
    return Status::TypeError("not a tuple object: " + oid.ToString());
  }
  const auto& attrs = schema_->attributes(type);
  if (attr_index >= attrs.size()) {
    return Status::OutOfRange("attribute index out of range");
  }
  ASR_RETURN_IF_ERROR(CheckAttributeValue(type, attrs[attr_index], value));
  Result<Location> loc = Locate(oid);
  ASR_RETURN_IF_ERROR(loc.status());
  const TypeState& state = State(type);
  PageGuard guard = buffers_->Pin(PageId{state.segment, loc->page_no});
  uint16_t len = SlottedPage::RecordLength(guard.page(), loc->slot);
  std::vector<std::byte> record(len);
  SlottedPage::Read(guard.page(), loc->slot, record.data());
  WriteU64(&record, kOidBytes + 8 * attr_index, value.raw());
  SlottedPage::WriteInPlace(&guard.page(), loc->slot, record.data(), len);
  guard.MarkDirty();
  return Status::OK();
}

Status ObjectStore::SetAttributeByName(Oid oid, const std::string& attr_name,
                                       AsrKey value) {
  if (oid.IsNull()) return Status::InvalidArgument("NULL OID");
  Result<uint32_t> idx = schema_->FindAttribute(oid.type_id(), attr_name);
  ASR_RETURN_IF_ERROR(idx.status());
  return SetAttribute(oid, *idx, value);
}

Status ObjectStore::SetString(Oid oid, const std::string& attr_name,
                              std::string_view value) {
  // Exclusive before dict_.Intern (a mutation); the nested SetAttribute
  // piggybacks on this hold.
  WriteGuard store_guard(this);
  return SetAttributeByName(oid, attr_name, AsrKey::FromString(value, &dict_));
}

Result<std::string> ObjectStore::GetString(Oid oid,
                                           const std::string& attr_name) {
  ReadGuard store_guard(this);
  Result<AsrKey> key = GetAttributeByName(oid, attr_name);
  ASR_RETURN_IF_ERROR(key.status());
  if (!key->IsString()) {
    return Status::TypeError("attribute '" + attr_name + "' is not a string");
  }
  return dict_.Get(key->ToStringCode());
}

Status ObjectStore::SetInt(Oid oid, const std::string& attr_name,
                           int64_t value) {
  return SetAttributeByName(oid, attr_name, AsrKey::FromInt(value));
}

Status ObjectStore::SetDecimal(Oid oid, const std::string& attr_name,
                               double value) {
  return SetAttributeByName(
      oid, attr_name, AsrKey::FromInt(std::llround(value * 100.0)));
}

Status ObjectStore::SetRef(Oid oid, const std::string& attr_name, Oid target) {
  return SetAttributeByName(oid, attr_name, AsrKey::FromOid(target));
}

Result<TupleView> ObjectStore::GetTuple(Oid oid) {
  ReadGuard store_guard(this);
  if (oid.IsNull()) return Status::InvalidArgument("NULL OID");
  TypeId type = oid.type_id();
  if (!schema_->IsValidType(type) || !schema_->IsTuple(type)) {
    return Status::TypeError("not a tuple object: " + oid.ToString());
  }
  Result<Location> loc = Locate(oid);
  ASR_RETURN_IF_ERROR(loc.status());
  const TypeState& state = State(type);
  PageGuard guard = buffers_->Pin(PageId{state.segment, loc->page_no});
  std::vector<std::byte> record(
      SlottedPage::RecordLength(guard.page(), loc->slot));
  SlottedPage::Read(guard.page(), loc->slot, record.data());
  size_t n = schema_->attributes(type).size();
  ASR_RETURN_IF_ERROR(CheckRecordLength(record, TupleBytes(n)));
  TupleView view;
  view.oid = oid;
  view.attrs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    view.attrs.push_back(
        AsrKey::FromRaw(ReadU64(record, kOidBytes + 8 * i)));
  }
  return view;
}

Result<std::vector<TupleView>> ObjectStore::GetTuples(std::vector<Oid> oids) {
  ReadGuard store_guard(this);
  // Sort by physical placement so each page is pinned exactly once.
  struct Placement {
    Oid oid;
    Location loc;
  };
  std::vector<Placement> placements;
  placements.reserve(oids.size());
  for (Oid oid : oids) {
    if (oid.IsNull() || !schema_->IsValidType(oid.type_id()) ||
        !schema_->IsTuple(oid.type_id())) {
      return Status::TypeError("not a tuple object: " + oid.ToString());
    }
    Result<Location> loc = Locate(oid);
    ASR_RETURN_IF_ERROR(loc.status());
    placements.push_back({oid, *loc});
  }
  std::sort(placements.begin(), placements.end(),
            [](const Placement& a, const Placement& b) {
              if (a.oid.type_id() != b.oid.type_id()) {
                return a.oid.type_id() < b.oid.type_id();
              }
              if (a.loc.page_no != b.loc.page_no) {
                return a.loc.page_no < b.loc.page_no;
              }
              return a.loc.slot < b.loc.slot;
            });
  std::vector<TupleView> out;
  out.reserve(placements.size());
  storage::PageGuard guard;
  storage::PageId pinned = storage::kInvalidPageId;
  for (const Placement& pl : placements) {
    const TypeState& state = State(pl.oid.type_id());
    storage::PageId page_id{state.segment, pl.loc.page_no};
    if (page_id != pinned) {
      guard = buffers_->Pin(page_id);
      pinned = page_id;
    }
    std::vector<std::byte> record(
        storage::SlottedPage::RecordLength(guard.page(), pl.loc.slot));
    storage::SlottedPage::Read(guard.page(), pl.loc.slot, record.data());
    size_t n = schema_->attributes(pl.oid.type_id()).size();
    ASR_RETURN_IF_ERROR(CheckRecordLength(record, TupleBytes(n)));
    TupleView view;
    view.oid = pl.oid;
    view.attrs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      view.attrs.push_back(AsrKey::FromRaw(ReadU64(record, kOidBytes + 8 * i)));
    }
    out.push_back(std::move(view));
  }
  return out;
}

Result<std::vector<SetView>> ObjectStore::GetSets(std::vector<Oid> oids) {
  ReadGuard store_guard(this);
  struct Placement {
    Oid oid;
    Location loc;
  };
  std::vector<Placement> placements;
  placements.reserve(oids.size());
  for (Oid oid : oids) {
    if (oid.IsNull() || !schema_->IsValidType(oid.type_id()) ||
        !schema_->IsCollection(oid.type_id())) {
      return Status::TypeError("not a collection instance: " +
                               oid.ToString());
    }
    Result<Location> loc = Locate(oid);
    ASR_RETURN_IF_ERROR(loc.status());
    placements.push_back({oid, *loc});
  }
  std::sort(placements.begin(), placements.end(),
            [](const Placement& a, const Placement& b) {
              if (a.oid.type_id() != b.oid.type_id()) {
                return a.oid.type_id() < b.oid.type_id();
              }
              if (a.loc.page_no != b.loc.page_no) {
                return a.loc.page_no < b.loc.page_no;
              }
              return a.loc.slot < b.loc.slot;
            });
  std::vector<SetView> out;
  out.reserve(placements.size());
  storage::PageGuard guard;
  storage::PageId pinned = storage::kInvalidPageId;
  for (const Placement& pl : placements) {
    const TypeState& state = State(pl.oid.type_id());
    storage::PageId page_id{state.segment, pl.loc.page_no};
    if (page_id != pinned) {
      guard = buffers_->Pin(page_id);
      pinned = page_id;
    }
    std::vector<std::byte> record(
        storage::SlottedPage::RecordLength(guard.page(), pl.loc.slot));
    storage::SlottedPage::Read(guard.page(), pl.loc.slot, record.data());
    Result<uint32_t> raw_count = SetRecordCount(record);
    ASR_RETURN_IF_ERROR(raw_count.status());
    SetView view;
    view.oid = pl.oid;
    uint32_t count = *raw_count & ~kContinuationFlag;
    view.members.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      view.members.push_back(
          AsrKey::FromRaw(ReadU64(record, kSetHeaderBytes + 8 * i)));
    }
    out.push_back(std::move(view));
  }
  // Expand overflow chains (extra page pins per continuation record).
  for (SetView& view : out) {
    if (SetHasOverflow(view.oid)) {
      Result<std::vector<AsrKey>> all = ReadSetChain(view.oid);
      ASR_RETURN_IF_ERROR(all.status());
      view.members = std::move(*all);
    }
  }
  return out;
}

Result<std::vector<std::pair<Oid, std::vector<AsrKey>>>>
ObjectStore::GetAttributeTargets(std::vector<Oid> oids,
                                 const std::string& attr_name) {
  ReadGuard store_guard(this);
  struct Placement {
    Oid oid;
    Location loc;
  };
  std::vector<Placement> placements;
  placements.reserve(oids.size());
  for (Oid oid : oids) {
    if (oid.IsNull() || !schema_->IsValidType(oid.type_id()) ||
        !schema_->IsTuple(oid.type_id())) {
      return Status::TypeError("not a tuple object: " + oid.ToString());
    }
    Result<Location> loc = Locate(oid);
    ASR_RETURN_IF_ERROR(loc.status());
    placements.push_back({oid, *loc});
  }
  std::sort(placements.begin(), placements.end(),
            [](const Placement& a, const Placement& b) {
              if (a.oid.type_id() != b.oid.type_id()) {
                return a.oid.type_id() < b.oid.type_id();
              }
              if (a.loc.page_no != b.loc.page_no) {
                return a.loc.page_no < b.loc.page_no;
              }
              return a.loc.slot < b.loc.slot;
            });

  std::vector<std::pair<Oid, std::vector<AsrKey>>> out;
  out.reserve(placements.size());
  // Set instances not co-located with their owner: fetched page-batched in a
  // second pass.
  std::vector<Oid> deferred_sets;
  std::vector<size_t> deferred_out_index;

  storage::PageGuard guard;
  storage::PageId pinned = storage::kInvalidPageId;
  for (const Placement& pl : placements) {
    const TypeState& state = State(pl.oid.type_id());
    storage::PageId page_id{state.segment, pl.loc.page_no};
    if (page_id != pinned) {
      guard = buffers_->Pin(page_id);
      pinned = page_id;
    }
    Result<uint32_t> idx =
        schema_->FindAttribute(pl.oid.type_id(), attr_name);
    ASR_RETURN_IF_ERROR(idx.status());
    std::vector<std::byte> record(
        SlottedPage::RecordLength(guard.page(), pl.loc.slot));
    SlottedPage::Read(guard.page(), pl.loc.slot, record.data());
    ASR_RETURN_IF_ERROR(CheckRecordLength(record, TupleBytes(*idx + 1)));
    AsrKey value = AsrKey::FromRaw(ReadU64(record, kOidBytes + 8 * *idx));
    if (value.IsNull()) continue;

    const Attribute& attr = schema_->attributes(pl.oid.type_id())[*idx];
    if (!schema_->IsCollection(attr.range_type)) {
      out.emplace_back(pl.oid, std::vector<AsrKey>{value});
      continue;
    }
    // Set-valued: decode from this page when co-located, else defer.
    Oid set_oid = value.ToOid();
    Result<Location> set_loc = Locate(set_oid);
    ASR_RETURN_IF_ERROR(set_loc.status());
    const TypeState& set_state = State(set_oid.type_id());
    if (set_state.segment == state.segment &&
        set_loc->page_no == pl.loc.page_no && !SetHasOverflow(set_oid)) {
      std::vector<std::byte> set_rec(
          SlottedPage::RecordLength(guard.page(), set_loc->slot));
      SlottedPage::Read(guard.page(), set_loc->slot, set_rec.data());
      Result<uint32_t> count = SetRecordCount(set_rec);
      ASR_RETURN_IF_ERROR(count.status());
      std::vector<AsrKey> members;
      members.reserve(*count);
      for (uint32_t i = 0; i < *count; ++i) {
        members.push_back(
            AsrKey::FromRaw(ReadU64(set_rec, kSetHeaderBytes + 8 * i)));
      }
      out.emplace_back(pl.oid, std::move(members));
    } else {
      out.emplace_back(pl.oid, std::vector<AsrKey>{});
      deferred_sets.push_back(set_oid);
      deferred_out_index.push_back(out.size() - 1);
    }
  }
  guard.Release();

  if (!deferred_sets.empty()) {
    // GetSets returns in physical order; map results back via set OID.
    std::unordered_map<uint64_t, size_t> index_of_set;
    for (size_t i = 0; i < deferred_sets.size(); ++i) {
      index_of_set[deferred_sets[i].raw()] = deferred_out_index[i];
    }
    Result<std::vector<SetView>> sets = GetSets(deferred_sets);
    ASR_RETURN_IF_ERROR(sets.status());
    for (SetView& view : *sets) {
      out[index_of_set.at(view.oid.raw())].second = std::move(view.members);
    }
  }
  return out;
}

Status ObjectStore::ScanWithTargets(
    TypeId type, const std::string& attr_name,
    const std::function<Status(Oid, const std::vector<AsrKey>&)>& fn) {
  ReadGuard store_guard(this);
  if (!schema_->IsValidType(type) || !schema_->IsTuple(type)) {
    return Status::TypeError("ScanWithTargets requires a tuple type");
  }
  Result<uint32_t> attr_idx = schema_->FindAttribute(type, attr_name);
  ASR_RETURN_IF_ERROR(attr_idx.status());
  const Attribute& attr = schema_->attributes(type)[*attr_idx];
  const bool set_valued = schema_->IsCollection(attr.range_type);

  const TypeState* state = StateOrNull(type);
  if (state == nullptr || state->segment == UINT32_MAX) return Status::OK();
  uint32_t pages = buffers_->disk()->SegmentPageCount(state->segment);

  // Sets that were not co-located on their owner's page, fetched afterwards.
  std::vector<Oid> deferred_sets;
  std::vector<Oid> deferred_owners;

  for (uint32_t p = 0; p < pages; ++p) {
    PageGuard guard = buffers_->Pin(PageId{state->segment, p});
    uint16_t slots = SlottedPage::slot_count(guard.page());
    for (int s = 0; s < slots; ++s) {
      if (!SlottedPage::IsLive(guard.page(), s)) continue;
      std::vector<std::byte> record(
          SlottedPage::RecordLength(guard.page(), s));
      SlottedPage::Read(guard.page(), s, record.data());
      ASR_RETURN_IF_ERROR(CheckRecordLength(record, kOidBytes));
      Oid oid = Oid::FromRaw(ReadU64(record, 0));
      if (oid.type_id() != type) continue;
      ASR_RETURN_IF_ERROR(CheckRecordLength(record, TupleBytes(*attr_idx + 1)));
      AsrKey value = AsrKey::FromRaw(ReadU64(record, kOidBytes + 8 * *attr_idx));
      if (value.IsNull()) continue;
      if (!set_valued) {
        ASR_RETURN_IF_ERROR(fn(oid, std::vector<AsrKey>{value}));
        continue;
      }
      Oid set_oid = value.ToOid();
      Result<Location> set_loc = Locate(set_oid);
      ASR_RETURN_IF_ERROR(set_loc.status());
      const TypeState& set_state = State(set_oid.type_id());
      if (set_state.segment == state->segment && set_loc->page_no == p &&
          !SetHasOverflow(set_oid)) {
        std::vector<std::byte> set_rec(
            SlottedPage::RecordLength(guard.page(), set_loc->slot));
        SlottedPage::Read(guard.page(), set_loc->slot, set_rec.data());
        Result<uint32_t> count = SetRecordCount(set_rec);
        ASR_RETURN_IF_ERROR(count.status());
        std::vector<AsrKey> members;
        members.reserve(*count);
        for (uint32_t i = 0; i < *count; ++i) {
          members.push_back(
              AsrKey::FromRaw(ReadU64(set_rec, kSetHeaderBytes + 8 * i)));
        }
        ASR_RETURN_IF_ERROR(fn(oid, members));
      } else {
        deferred_sets.push_back(set_oid);
        deferred_owners.push_back(oid);
      }
    }
  }

  if (!deferred_sets.empty()) {
    std::unordered_map<uint64_t, Oid> owner_of_set;
    for (size_t i = 0; i < deferred_sets.size(); ++i) {
      owner_of_set[deferred_sets[i].raw()] = deferred_owners[i];
    }
    Result<std::vector<SetView>> sets = GetSets(deferred_sets);
    ASR_RETURN_IF_ERROR(sets.status());
    for (const SetView& view : *sets) {
      ASR_RETURN_IF_ERROR(fn(owner_of_set.at(view.oid.raw()), view.members));
    }
  }
  return Status::OK();
}

Status ObjectStore::AddToSet(Oid set_oid, AsrKey member) {
  WriteGuard store_guard(this);
  if (set_oid.IsNull()) return Status::InvalidArgument("NULL set OID");
  TypeId type = set_oid.type_id();
  if (!schema_->IsValidType(type) || !schema_->IsSet(type)) {
    return Status::TypeError("not a set instance: " + set_oid.ToString());
  }
  if (member.IsNull()) {
    return Status::InvalidArgument("cannot insert NULL into a set");
  }
  // Strong typing on the element: subtype instances allowed for object
  // elements, exact atomic kind for value elements.
  TypeId elem = schema_->element_type(type);
  if (schema_->IsTuple(elem)) {
    if (!member.IsOid() ||
        !schema_->IsSubtypeOf(member.ToOid().type_id(), elem)) {
      return Status::TypeError("set member is not a (subtype) instance of '" +
                               schema_->name(elem) + "'");
    }
  } else {
    AtomicKind ak = schema_->atomic_kind(elem);
    bool ok = (ak == AtomicKind::kString) ? member.IsString() : member.IsInt();
    if (!ok) {
      return Status::TypeError("set member does not match element type '" +
                               schema_->name(elem) + "'");
    }
  }

  Result<Location> primary = Locate(set_oid);
  ASR_RETURN_IF_ERROR(primary.status());
  TypeState& state = State(type);

  // Walk the chain once: duplicate check, and remember the first record
  // with free space.
  std::vector<Location> chain{*primary};
  auto overflow_it = state.overflow.find(set_oid.seq());
  if (overflow_it != state.overflow.end()) {
    chain.insert(chain.end(), overflow_it->second.begin(),
                 overflow_it->second.end());
  }
  int free_idx = -1;
  uint32_t last_capacity = 0;
  for (size_t r = 0; r < chain.size(); ++r) {
    PageGuard guard = buffers_->Pin(PageId{state.segment, chain[r].page_no});
    uint16_t len = SlottedPage::RecordLength(guard.page(), chain[r].slot);
    std::vector<std::byte> record(len);
    SlottedPage::Read(guard.page(), chain[r].slot, record.data());
    uint32_t count = ReadU32(record, kOidBytes) & ~kContinuationFlag;
    uint32_t capacity = (len - kSetHeaderBytes) / 8;
    last_capacity = capacity;
    for (uint32_t i = 0; i < count; ++i) {
      if (ReadU64(record, kSetHeaderBytes + 8 * i) == member.raw()) {
        return Status::OK();  // set semantics: duplicate insert is a no-op
      }
    }
    if (free_idx < 0 && count < capacity) free_idx = static_cast<int>(r);
  }

  // Insert into the first record with room.
  if (free_idx >= 0) {
    const Location& loc = chain[free_idx];
    PageGuard guard = buffers_->Pin(PageId{state.segment, loc.page_no});
    uint16_t len = SlottedPage::RecordLength(guard.page(), loc.slot);
    std::vector<std::byte> record(len);
    SlottedPage::Read(guard.page(), loc.slot, record.data());
    uint32_t raw_count = ReadU32(record, kOidBytes);
    uint32_t count = raw_count & ~kContinuationFlag;
    WriteU64(&record, kSetHeaderBytes + 8 * count, member.raw());
    WriteU32(&record, kOidBytes, (raw_count & kContinuationFlag) | (count + 1));
    SlottedPage::WriteInPlace(&guard.page(), loc.slot, record.data(), len);
    guard.MarkDirty();
    return Status::OK();
  }

  // All records full. Grow the primary by relocation while it fits on a
  // page; afterwards extend the overflow chain.
  if (chain.size() == 1) {
    PageGuard guard = buffers_->Pin(PageId{state.segment, primary->page_no});
    uint16_t len = SlottedPage::RecordLength(guard.page(), primary->slot);
    if (len < kMaxRecordBytes) {
      std::vector<std::byte> record(len);
      SlottedPage::Read(guard.page(), primary->slot, record.data());
      uint32_t count = ReadU32(record, kOidBytes);
      uint32_t capacity = (len - kSetHeaderBytes) / 8;
      uint32_t new_capacity = capacity == 0 ? 4 : capacity * 2;
      uint32_t new_len =
          std::min(kMaxRecordBytes, kSetHeaderBytes + 8 * new_capacity);
      std::vector<std::byte> grown(new_len, std::byte{0});
      std::memcpy(grown.data(), record.data(), record.size());
      WriteU64(&grown, kSetHeaderBytes + 8 * count, member.raw());
      WriteU32(&grown, kOidBytes, count + 1);
      SlottedPage::Delete(&guard.page(), primary->slot);
      guard.MarkDirty();
      guard.Release();
      state.locations[set_oid.seq() - 1] = PlaceRecord(type, grown);
      return Status::OK();
    }
  }

  // New continuation record, capacity doubling along the chain.
  uint32_t max_members = (kMaxRecordBytes - kSetHeaderBytes) / 8;
  uint32_t new_capacity =
      std::min(max_members, std::max<uint32_t>(16, last_capacity * 2));
  std::vector<std::byte> record(kSetHeaderBytes + 8 * new_capacity,
                                std::byte{0});
  WriteU64(&record, 0, set_oid.raw());
  WriteU32(&record, kOidBytes, kContinuationFlag | 1);
  WriteU64(&record, kSetHeaderBytes, member.raw());
  state.overflow[set_oid.seq()].push_back(PlaceRecord(type, record));
  return Status::OK();
}

Status ObjectStore::RemoveFromSet(Oid set_oid, AsrKey member) {
  WriteGuard store_guard(this);
  if (set_oid.IsNull()) return Status::InvalidArgument("NULL set OID");
  TypeId type = set_oid.type_id();
  if (!schema_->IsValidType(type) || !schema_->IsSet(type)) {
    return Status::TypeError("not a set instance: " + set_oid.ToString());
  }
  Result<Location> primary = Locate(set_oid);
  ASR_RETURN_IF_ERROR(primary.status());
  TypeState& state = State(type);
  std::vector<Location> chain{*primary};
  auto overflow_it = state.overflow.find(set_oid.seq());
  if (overflow_it != state.overflow.end()) {
    chain.insert(chain.end(), overflow_it->second.begin(),
                 overflow_it->second.end());
  }
  for (const Location& loc : chain) {
    PageGuard guard = buffers_->Pin(PageId{state.segment, loc.page_no});
    uint16_t len = SlottedPage::RecordLength(guard.page(), loc.slot);
    std::vector<std::byte> record(len);
    SlottedPage::Read(guard.page(), loc.slot, record.data());
    uint32_t raw_count = ReadU32(record, kOidBytes);
    uint32_t count = raw_count & ~kContinuationFlag;
    for (uint32_t i = 0; i < count; ++i) {
      if (ReadU64(record, kSetHeaderBytes + 8 * i) == member.raw()) {
        // Swap-with-last keeps the record's member array dense.
        uint64_t last = ReadU64(record, kSetHeaderBytes + 8 * (count - 1));
        WriteU64(&record, kSetHeaderBytes + 8 * i, last);
        WriteU64(&record, kSetHeaderBytes + 8 * (count - 1), 0);
        WriteU32(&record, kOidBytes,
                 (raw_count & kContinuationFlag) | (count - 1));
        SlottedPage::WriteInPlace(&guard.page(), loc.slot, record.data(),
                                  len);
        guard.MarkDirty();
        return Status::OK();
      }
    }
  }
  return Status::NotFound("member not in set");
}

Status ObjectStore::ListAppend(Oid list_oid, AsrKey element) {
  WriteGuard store_guard(this);
  if (list_oid.IsNull()) return Status::InvalidArgument("NULL list OID");
  TypeId type = list_oid.type_id();
  if (!schema_->IsValidType(type) || !schema_->IsList(type)) {
    return Status::TypeError("not a list instance: " + list_oid.ToString());
  }
  if (element.IsNull()) {
    return Status::InvalidArgument("cannot append NULL to a list");
  }
  TypeId elem = schema_->element_type(type);
  if (schema_->IsTuple(elem)) {
    if (!element.IsOid() ||
        !schema_->IsSubtypeOf(element.ToOid().type_id(), elem)) {
      return Status::TypeError(
          "list element is not a (subtype) instance of '" +
          schema_->name(elem) + "'");
    }
  } else {
    AtomicKind ak = schema_->atomic_kind(elem);
    bool ok =
        (ak == AtomicKind::kString) ? element.IsString() : element.IsInt();
    if (!ok) {
      return Status::TypeError("list element does not match element type '" +
                               schema_->name(elem) + "'");
    }
  }

  Result<Location> primary = Locate(list_oid);
  ASR_RETURN_IF_ERROR(primary.status());
  TypeState& state = State(type);
  // Order matters: always append to the LAST record of the chain.
  Location tail = *primary;
  bool tail_is_primary = true;
  auto overflow_it = state.overflow.find(list_oid.seq());
  if (overflow_it != state.overflow.end() && !overflow_it->second.empty()) {
    tail = overflow_it->second.back();
    tail_is_primary = false;
  }
  {
    PageGuard guard = buffers_->Pin(PageId{state.segment, tail.page_no});
    uint16_t len = SlottedPage::RecordLength(guard.page(), tail.slot);
    std::vector<std::byte> record(len);
    SlottedPage::Read(guard.page(), tail.slot, record.data());
    uint32_t raw_count = ReadU32(record, kOidBytes);
    uint32_t count = raw_count & ~kContinuationFlag;
    uint32_t capacity = (len - kSetHeaderBytes) / 8;
    if (count < capacity) {
      WriteU64(&record, kSetHeaderBytes + 8 * count, element.raw());
      WriteU32(&record, kOidBytes,
               (raw_count & kContinuationFlag) | (count + 1));
      SlottedPage::WriteInPlace(&guard.page(), tail.slot, record.data(), len);
      guard.MarkDirty();
      return Status::OK();
    }
    // Grow the primary by relocation while it fits on a page.
    if (tail_is_primary && len < kMaxRecordBytes) {
      uint32_t new_capacity = capacity == 0 ? 4 : capacity * 2;
      uint32_t new_len =
          std::min(kMaxRecordBytes, kSetHeaderBytes + 8 * new_capacity);
      std::vector<std::byte> grown(new_len, std::byte{0});
      std::memcpy(grown.data(), record.data(), record.size());
      WriteU64(&grown, kSetHeaderBytes + 8 * count, element.raw());
      WriteU32(&grown, kOidBytes, count + 1);
      SlottedPage::Delete(&guard.page(), tail.slot);
      guard.MarkDirty();
      guard.Release();
      state.locations[list_oid.seq() - 1] = PlaceRecord(type, grown);
      return Status::OK();
    }
  }
  // New continuation record at the end of the chain.
  uint32_t max_members = (kMaxRecordBytes - kSetHeaderBytes) / 8;
  std::vector<std::byte> record(
      kSetHeaderBytes + 8 * std::min<uint32_t>(max_members, 256),
      std::byte{0});
  WriteU64(&record, 0, list_oid.raw());
  WriteU32(&record, kOidBytes, kContinuationFlag | 1);
  WriteU64(&record, kSetHeaderBytes, element.raw());
  state.overflow[list_oid.seq()].push_back(PlaceRecord(type, record));
  return Status::OK();
}

Status ObjectStore::ListRemoveAt(Oid list_oid, uint32_t index) {
  WriteGuard store_guard(this);
  if (list_oid.IsNull()) return Status::InvalidArgument("NULL list OID");
  TypeId type = list_oid.type_id();
  if (!schema_->IsValidType(type) || !schema_->IsList(type)) {
    return Status::TypeError("not a list instance: " + list_oid.ToString());
  }
  Result<Location> primary = Locate(list_oid);
  ASR_RETURN_IF_ERROR(primary.status());
  TypeState& state = State(type);
  std::vector<Location> chain{*primary};
  auto overflow_it = state.overflow.find(list_oid.seq());
  if (overflow_it != state.overflow.end()) {
    chain.insert(chain.end(), overflow_it->second.begin(),
                 overflow_it->second.end());
  }
  uint32_t remaining = index;
  for (const Location& loc : chain) {
    PageGuard guard = buffers_->Pin(PageId{state.segment, loc.page_no});
    uint16_t len = SlottedPage::RecordLength(guard.page(), loc.slot);
    std::vector<std::byte> record(len);
    SlottedPage::Read(guard.page(), loc.slot, record.data());
    uint32_t raw_count = ReadU32(record, kOidBytes);
    uint32_t count = raw_count & ~kContinuationFlag;
    if (remaining >= count) {
      remaining -= count;
      continue;
    }
    // Shift left within the record to preserve order.
    for (uint32_t i = remaining; i + 1 < count; ++i) {
      WriteU64(&record, kSetHeaderBytes + 8 * i,
               ReadU64(record, kSetHeaderBytes + 8 * (i + 1)));
    }
    WriteU64(&record, kSetHeaderBytes + 8 * (count - 1), 0);
    WriteU32(&record, kOidBytes, (raw_count & kContinuationFlag) | (count - 1));
    SlottedPage::WriteInPlace(&guard.page(), loc.slot, record.data(), len);
    guard.MarkDirty();
    return Status::OK();
  }
  return Status::OutOfRange("list index out of range");
}

Result<uint64_t> ObjectStore::ListLength(Oid list_oid) {
  ReadGuard store_guard(this);
  if (list_oid.IsNull()) return Status::InvalidArgument("NULL list OID");
  if (!schema_->IsValidType(list_oid.type_id()) ||
      !schema_->IsList(list_oid.type_id())) {
    return Status::TypeError("not a list instance: " + list_oid.ToString());
  }
  Result<std::vector<AsrKey>> members = ReadSetChain(list_oid);
  ASR_RETURN_IF_ERROR(members.status());
  return static_cast<uint64_t>(members->size());
}

bool ObjectStore::SetHasOverflow(Oid set_oid) const {
  const TypeState* state = StateOrNull(set_oid.type_id());
  return state != nullptr &&
         state->overflow.count(set_oid.seq()) > 0;
}

Result<std::vector<AsrKey>> ObjectStore::ReadSetChain(Oid set_oid) {
  Result<Location> primary = Locate(set_oid);
  ASR_RETURN_IF_ERROR(primary.status());
  TypeState& state = State(set_oid.type_id());
  std::vector<Location> chain{*primary};
  auto overflow_it = state.overflow.find(set_oid.seq());
  if (overflow_it != state.overflow.end()) {
    chain.insert(chain.end(), overflow_it->second.begin(),
                 overflow_it->second.end());
  }
  std::vector<AsrKey> members;
  for (const Location& loc : chain) {
    PageGuard guard = buffers_->Pin(PageId{state.segment, loc.page_no});
    std::vector<std::byte> record(
        SlottedPage::RecordLength(guard.page(), loc.slot));
    SlottedPage::Read(guard.page(), loc.slot, record.data());
    Result<uint32_t> raw_count = SetRecordCount(record);
    ASR_RETURN_IF_ERROR(raw_count.status());
    uint32_t count = *raw_count & ~kContinuationFlag;
    for (uint32_t i = 0; i < count; ++i) {
      members.push_back(
          AsrKey::FromRaw(ReadU64(record, kSetHeaderBytes + 8 * i)));
    }
  }
  return members;
}

Result<SetView> ObjectStore::GetSet(Oid collection_oid) {
  ReadGuard store_guard(this);
  Oid set_oid = collection_oid;
  if (set_oid.IsNull()) return Status::InvalidArgument("NULL set OID");
  TypeId type = set_oid.type_id();
  if (!schema_->IsValidType(type) || !schema_->IsCollection(type)) {
    return Status::TypeError("not a collection instance: " +
                             set_oid.ToString());
  }
  Result<std::vector<AsrKey>> members = ReadSetChain(set_oid);
  ASR_RETURN_IF_ERROR(members.status());
  SetView view;
  view.oid = set_oid;
  view.members = std::move(*members);
  return view;
}

Result<bool> ObjectStore::SetContains(Oid collection_oid, AsrKey member) {
  ReadGuard store_guard(this);
  Result<SetView> view = GetSet(collection_oid);
  ASR_RETURN_IF_ERROR(view.status());
  for (AsrKey m : view->members) {
    if (m == member) return true;
  }
  return false;
}

Status ObjectStore::ScanTuples(
    TypeId type, const std::function<Status(const TupleView&)>& fn) {
  ReadGuard store_guard(this);
  if (!schema_->IsValidType(type) || !schema_->IsTuple(type)) {
    return Status::TypeError("ScanTuples requires a tuple type");
  }
  const TypeState* state = StateOrNull(type);
  if (state == nullptr || state->segment == UINT32_MAX) return Status::OK();
  size_t n_attrs = schema_->attributes(type).size();
  uint32_t pages = buffers_->disk()->SegmentPageCount(state->segment);
  for (uint32_t p = 0; p < pages; ++p) {
    PageGuard guard = buffers_->Pin(PageId{state->segment, p});
    uint16_t slots = SlottedPage::slot_count(guard.page());
    for (int s = 0; s < slots; ++s) {
      if (!SlottedPage::IsLive(guard.page(), s)) continue;
      std::vector<std::byte> record(
          SlottedPage::RecordLength(guard.page(), s));
      SlottedPage::Read(guard.page(), s, record.data());
      ASR_RETURN_IF_ERROR(CheckRecordLength(record, kOidBytes));
      TupleView view;
      view.oid = Oid::FromRaw(ReadU64(record, 0));
      // Co-located segments hold records of several types; filter.
      if (view.oid.type_id() != type) continue;
      ASR_RETURN_IF_ERROR(CheckRecordLength(record, TupleBytes(n_attrs)));
      view.attrs.reserve(n_attrs);
      for (size_t i = 0; i < n_attrs; ++i) {
        view.attrs.push_back(
            AsrKey::FromRaw(ReadU64(record, kOidBytes + 8 * i)));
      }
      ASR_RETURN_IF_ERROR(fn(view));
    }
  }
  return Status::OK();
}

Status ObjectStore::ScanSets(TypeId type,
                             const std::function<Status(const SetView&)>& fn) {
  ReadGuard store_guard(this);
  if (!schema_->IsValidType(type) || !schema_->IsCollection(type)) {
    return Status::TypeError("ScanSets requires a set or list type");
  }
  const TypeState* state = StateOrNull(type);
  if (state == nullptr || state->segment == UINT32_MAX) return Status::OK();
  uint32_t pages = buffers_->disk()->SegmentPageCount(state->segment);
  for (uint32_t p = 0; p < pages; ++p) {
    PageGuard guard = buffers_->Pin(PageId{state->segment, p});
    uint16_t slots = SlottedPage::slot_count(guard.page());
    for (int s = 0; s < slots; ++s) {
      if (!SlottedPage::IsLive(guard.page(), s)) continue;
      std::vector<std::byte> record(
          SlottedPage::RecordLength(guard.page(), s));
      SlottedPage::Read(guard.page(), s, record.data());
      ASR_RETURN_IF_ERROR(CheckRecordLength(record, kOidBytes));
      SetView view;
      view.oid = Oid::FromRaw(ReadU64(record, 0));
      if (view.oid.type_id() != type) continue;
      Result<uint32_t> raw_count = SetRecordCount(record);
      ASR_RETURN_IF_ERROR(raw_count.status());
      if ((*raw_count & kContinuationFlag) != 0) continue;  // chain tail
      uint32_t count = *raw_count;
      view.members.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        view.members.push_back(
            AsrKey::FromRaw(ReadU64(record, kSetHeaderBytes + 8 * i)));
      }
      if (SetHasOverflow(view.oid)) {
        Result<std::vector<AsrKey>> all = ReadSetChain(view.oid);
        ASR_RETURN_IF_ERROR(all.status());
        view.members = std::move(*all);
      }
      ASR_RETURN_IF_ERROR(fn(view));
    }
  }
  return Status::OK();
}

Status ObjectStore::CheckConsistency() {
  ReadGuard store_guard(this);
  for (TypeId type = 0; type < states_.size(); ++type) {
    const TypeState& state = states_[type];
    if (state.segment == UINT32_MAX) {
      if (!state.locations.empty()) {
        return Status::Corruption("type " + std::to_string(type) +
                                  " has locations but no segment");
      }
      continue;
    }
    uint64_t live = 0;
    uint32_t pages = buffers_->disk()->SegmentPageCount(state.segment);
    for (uint64_t seq = 1; seq <= state.locations.size(); ++seq) {
      const Location& loc = state.locations[seq - 1];
      if (!loc.live) continue;
      ++live;
      if (loc.page_no >= pages) {
        return Status::Corruption("location beyond segment for " +
                                  Oid::Make(type, seq).ToString());
      }
      storage::PageGuard guard =
          buffers_->Pin(storage::PageId{state.segment, loc.page_no});
      if (loc.slot >= SlottedPage::slot_count(guard.page()) ||
          !SlottedPage::IsLive(guard.page(), loc.slot)) {
        return Status::Corruption("location points at a dead slot for " +
                                  Oid::Make(type, seq).ToString());
      }
      uint16_t len = SlottedPage::RecordLength(guard.page(), loc.slot);
      std::vector<std::byte> record(len);
      SlottedPage::Read(guard.page(), loc.slot, record.data());
      if (ReadU64(record, 0) != Oid::Make(type, seq).raw()) {
        return Status::Corruption("record OID mismatch for " +
                                  Oid::Make(type, seq).ToString());
      }
    }
    if (live != state.live_count) {
      return Status::Corruption("live count mismatch for type " +
                                std::to_string(type));
    }
    for (const auto& [seq, chain] : state.overflow) {
      if (seq == 0 || seq > state.locations.size() ||
          !state.locations[seq - 1].live) {
        return Status::Corruption("overflow chain for a dead set");
      }
      for (const Location& cont : chain) {
        if (cont.page_no >= pages) {
          return Status::Corruption("overflow record beyond segment");
        }
        storage::PageGuard guard =
            buffers_->Pin(storage::PageId{state.segment, cont.page_no});
        if (cont.slot >= SlottedPage::slot_count(guard.page()) ||
            !SlottedPage::IsLive(guard.page(), cont.slot)) {
          return Status::Corruption("overflow record slot is dead");
        }
        uint16_t len = SlottedPage::RecordLength(guard.page(), cont.slot);
        std::vector<std::byte> record(len);
        SlottedPage::Read(guard.page(), cont.slot, record.data());
        if (ReadU64(record, 0) != Oid::Make(type, seq).raw() ||
            (ReadU32(record, kOidBytes) & kContinuationFlag) == 0) {
          return Status::Corruption("overflow record header mismatch");
        }
      }
    }
  }
  return Status::OK();
}

void ObjectStore::SerializeMetadata(std::ostream* out) const {
  ReadGuard store_guard(this);
  dict_.Serialize(out);
  io::WriteScalar<uint32_t>(out, static_cast<uint32_t>(states_.size()));
  for (const TypeState& state : states_) {
    io::WriteScalar<uint32_t>(out, state.segment);
    io::WriteScalar<uint32_t>(out, state.pad_bytes);
    io::WriteScalar<uint32_t>(out, state.colocate_with);
    io::WriteScalar<uint64_t>(out, state.live_count);
    io::WriteScalar<uint64_t>(out, state.locations.size());
    for (const Location& loc : state.locations) {
      io::WriteScalar<uint32_t>(out, loc.page_no);
      io::WriteScalar<uint16_t>(out, loc.slot);
      io::WriteScalar<uint8_t>(out, loc.live ? 1 : 0);
    }
    io::WriteScalar<uint64_t>(out, state.overflow.size());
    for (const auto& [seq, chain] : state.overflow) {
      io::WriteScalar<uint64_t>(out, seq);
      io::WriteScalar<uint32_t>(out, static_cast<uint32_t>(chain.size()));
      for (const Location& loc : chain) {
        io::WriteScalar<uint32_t>(out, loc.page_no);
        io::WriteScalar<uint16_t>(out, loc.slot);
      }
    }
  }
  io::WriteScalar<uint32_t>(out, static_cast<uint32_t>(segment_fill_.size()));
  for (const auto& [segment, fill] : segment_fill_) {
    io::WriteScalar<uint32_t>(out, segment);
    io::WriteScalar<uint32_t>(out, fill);
  }
}

Status ObjectStore::DeserializeMetadata(std::istream* in) {
  WriteGuard store_guard(this);
  ASR_CHECK(states_.empty() && dict_.size() == 0);
  ASR_RETURN_IF_ERROR(dict_.Deserialize(in));
  Result<uint32_t> state_count = io::ReadScalar<uint32_t>(in);
  ASR_RETURN_IF_ERROR(state_count.status());
  states_.resize(*state_count);
  for (TypeState& state : states_) {
    Result<uint32_t> segment = io::ReadScalar<uint32_t>(in);
    ASR_RETURN_IF_ERROR(segment.status());
    state.segment = *segment;
    Result<uint32_t> pad = io::ReadScalar<uint32_t>(in);
    ASR_RETURN_IF_ERROR(pad.status());
    state.pad_bytes = *pad;
    Result<uint32_t> colocate = io::ReadScalar<uint32_t>(in);
    ASR_RETURN_IF_ERROR(colocate.status());
    state.colocate_with = *colocate;
    Result<uint64_t> live = io::ReadScalar<uint64_t>(in);
    ASR_RETURN_IF_ERROR(live.status());
    state.live_count = *live;
    Result<uint64_t> loc_count = io::ReadScalar<uint64_t>(in);
    ASR_RETURN_IF_ERROR(loc_count.status());
    state.locations.resize(*loc_count);
    for (Location& loc : state.locations) {
      Result<uint32_t> page_no = io::ReadScalar<uint32_t>(in);
      ASR_RETURN_IF_ERROR(page_no.status());
      loc.page_no = *page_no;
      Result<uint16_t> slot = io::ReadScalar<uint16_t>(in);
      ASR_RETURN_IF_ERROR(slot.status());
      loc.slot = *slot;
      Result<uint8_t> live_flag = io::ReadScalar<uint8_t>(in);
      ASR_RETURN_IF_ERROR(live_flag.status());
      loc.live = *live_flag != 0;
    }
    Result<uint64_t> overflow_count = io::ReadScalar<uint64_t>(in);
    ASR_RETURN_IF_ERROR(overflow_count.status());
    for (uint64_t o = 0; o < *overflow_count; ++o) {
      Result<uint64_t> seq = io::ReadScalar<uint64_t>(in);
      ASR_RETURN_IF_ERROR(seq.status());
      Result<uint32_t> chain_len = io::ReadScalar<uint32_t>(in);
      ASR_RETURN_IF_ERROR(chain_len.status());
      std::vector<Location> chain(*chain_len);
      for (Location& loc : chain) {
        Result<uint32_t> page_no = io::ReadScalar<uint32_t>(in);
        ASR_RETURN_IF_ERROR(page_no.status());
        loc.page_no = *page_no;
        Result<uint16_t> slot = io::ReadScalar<uint16_t>(in);
        ASR_RETURN_IF_ERROR(slot.status());
        loc.slot = *slot;
        loc.live = true;
      }
      state.overflow.emplace(*seq, std::move(chain));
    }
  }
  Result<uint32_t> fill_count = io::ReadScalar<uint32_t>(in);
  ASR_RETURN_IF_ERROR(fill_count.status());
  for (uint32_t f = 0; f < *fill_count; ++f) {
    Result<uint32_t> segment = io::ReadScalar<uint32_t>(in);
    ASR_RETURN_IF_ERROR(segment.status());
    Result<uint32_t> fill = io::ReadScalar<uint32_t>(in);
    ASR_RETURN_IF_ERROR(fill.status());
    segment_fill_[*segment] = *fill;
  }
  return Status::OK();
}

uint64_t ObjectStore::ObjectCount(TypeId type) const {
  ReadGuard store_guard(this);
  const TypeState* state = StateOrNull(type);
  return state == nullptr ? 0 : state->live_count;
}

uint32_t ObjectStore::PageCount(TypeId type) const {
  ReadGuard store_guard(this);
  const TypeState* state = StateOrNull(type);
  if (state == nullptr || state->segment == UINT32_MAX) return 0;
  return buffers_->disk()->SegmentPageCount(state->segment);
}

int64_t ObjectStore::SegmentOf(TypeId type) const {
  ReadGuard store_guard(this);
  const TypeState* state = StateOrNull(type);
  if (state == nullptr || state->segment == UINT32_MAX) return -1;
  return state->segment;
}

}  // namespace asr::gom
