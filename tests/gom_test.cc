// Tests for the GOM type system and object store.
#include <gtest/gtest.h>

#include <set>

#include "gom/object_store.h"
#include "gom/type_system.h"
#include "paper_example.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"

namespace asr::gom {
namespace {

// --- Schema / type system -------------------------------------------------

TEST(SchemaTest, BuiltInAtomicTypes) {
  Schema schema;
  EXPECT_EQ(schema.name(Schema::kIntType), "INTEGER");
  EXPECT_EQ(schema.name(Schema::kDecimalType), "DECIMAL");
  EXPECT_EQ(schema.name(Schema::kStringType), "STRING");
  EXPECT_TRUE(schema.IsAtomic(Schema::kStringType));
  EXPECT_EQ(schema.atomic_kind(Schema::kIntType), AtomicKind::kInt);
}

TEST(SchemaTest, DefineTupleTypeWithAttributes) {
  Schema schema;
  Result<TypeId> t = schema.DefineTupleType(
      "Person", {},
      {{"Name", Schema::kStringType, kInvalidTypeId},
       {"Age", Schema::kIntType, kInvalidTypeId}});
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(schema.IsTuple(*t));
  ASSERT_EQ(schema.attributes(*t).size(), 2u);
  EXPECT_EQ(schema.attributes(*t)[0].name, "Name");
  EXPECT_EQ(*schema.FindAttribute(*t, "Age"), 1u);
  EXPECT_TRUE(schema.FindAttribute(*t, "Ghost").status().IsNotFound());
}

TEST(SchemaTest, DuplicateTypeNameRejected) {
  Schema schema;
  ASSERT_TRUE(schema.DefineTupleType("T", {}, {}).ok());
  EXPECT_TRUE(schema.DefineTupleType("T", {}, {}).status().IsAlreadyExists());
}

TEST(SchemaTest, DuplicateAttributeRejected) {
  Schema schema;
  Result<TypeId> t = schema.DefineTupleType(
      "T", {},
      {{"A", Schema::kIntType, kInvalidTypeId},
       {"A", Schema::kIntType, kInvalidTypeId}});
  EXPECT_TRUE(t.status().IsTypeError());
}

TEST(SchemaTest, SingleInheritanceFlattensAttributes) {
  Schema schema;
  TypeId base = schema
                    .DefineTupleType("Base", {},
                                     {{"X", Schema::kIntType, kInvalidTypeId}})
                    .value();
  TypeId sub =
      schema
          .DefineTupleType("Sub", {base},
                           {{"Y", Schema::kIntType, kInvalidTypeId}})
          .value();
  ASSERT_EQ(schema.attributes(sub).size(), 2u);
  EXPECT_EQ(schema.attributes(sub)[0].name, "X");  // inherited first
  EXPECT_EQ(schema.attributes(sub)[1].name, "Y");
  EXPECT_TRUE(schema.IsSubtypeOf(sub, base));
  EXPECT_FALSE(schema.IsSubtypeOf(base, sub));
  EXPECT_TRUE(schema.IsSubtypeOf(sub, sub));  // reflexive
}

TEST(SchemaTest, MultipleInheritance) {
  Schema schema;
  TypeId a = schema
                 .DefineTupleType("A", {},
                                  {{"X", Schema::kIntType, kInvalidTypeId}})
                 .value();
  TypeId b = schema
                 .DefineTupleType("B", {},
                                  {{"Y", Schema::kIntType, kInvalidTypeId}})
                 .value();
  TypeId ab = schema.DefineTupleType("AB", {a, b}, {}).value();
  EXPECT_EQ(schema.attributes(ab).size(), 2u);
  EXPECT_TRUE(schema.IsSubtypeOf(ab, a));
  EXPECT_TRUE(schema.IsSubtypeOf(ab, b));
}

TEST(SchemaTest, DiamondInheritanceAllowed) {
  Schema schema;
  TypeId root =
      schema
          .DefineTupleType("Root", {},
                           {{"X", Schema::kIntType, kInvalidTypeId}})
          .value();
  TypeId left = schema.DefineTupleType("L", {root}, {}).value();
  TypeId right = schema.DefineTupleType("R", {root}, {}).value();
  Result<TypeId> diamond = schema.DefineTupleType("D", {left, right}, {});
  ASSERT_TRUE(diamond.ok());
  // X arrives twice via the shared ancestor but is the same attribute.
  EXPECT_EQ(schema.attributes(*diamond).size(), 1u);
  EXPECT_TRUE(schema.IsSubtypeOf(*diamond, root));
}

TEST(SchemaTest, AmbiguousInheritanceRejected) {
  Schema schema;
  TypeId a = schema
                 .DefineTupleType("A", {},
                                  {{"X", Schema::kIntType, kInvalidTypeId}})
                 .value();
  TypeId b = schema
                 .DefineTupleType("B", {},
                                  {{"X", Schema::kIntType, kInvalidTypeId}})
                 .value();
  EXPECT_TRUE(schema.DefineTupleType("AB", {a, b}, {}).status().IsTypeError());
}

TEST(SchemaTest, SetTypes) {
  Schema schema;
  TypeId t = schema.DefineTupleType("T", {}, {}).value();
  TypeId st = schema.DefineSetType("TSet", t).value();
  EXPECT_TRUE(schema.IsSet(st));
  EXPECT_EQ(schema.element_type(st), t);
}

TEST(SchemaTest, PowersetsRejected) {
  Schema schema;
  TypeId t = schema.DefineTupleType("T", {}, {}).value();
  TypeId st = schema.DefineSetType("TSet", t).value();
  EXPECT_TRUE(schema.DefineSetType("TSetSet", st).status().IsTypeError());
}

TEST(SchemaTest, FindTypeByName) {
  Schema schema;
  TypeId t = schema.DefineTupleType("Widget", {}, {}).value();
  EXPECT_EQ(*schema.FindType("Widget"), t);
  EXPECT_TRUE(schema.FindType("Gadget").status().IsNotFound());
}

// --- ObjectStore ------------------------------------------------------------

TEST(ObjectStoreBasics, CreateAndReadTuple) {
  Schema schema;
  TypeId person =
      schema
          .DefineTupleType("Person", {},
                           {{"Name", Schema::kStringType, kInvalidTypeId},
                            {"Age", Schema::kIntType, kInvalidTypeId}})
          .value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);

  Oid p = store.CreateObject(person).value();
  EXPECT_FALSE(p.IsNull());
  EXPECT_TRUE(store.Exists(p));
  // Fresh attributes are NULL (§2 "instantiation").
  EXPECT_TRUE(store.GetAttributeByName(p, "Name")->IsNull());

  ASSERT_TRUE(store.SetString(p, "Name", "Alice").ok());
  ASSERT_TRUE(store.SetInt(p, "Age", 31).ok());
  EXPECT_EQ(*store.GetString(p, "Name"), "Alice");
  EXPECT_EQ(store.GetAttributeByName(p, "Age")->ToInt(), 31);
}

TEST(ObjectStoreBasics, StrongTypingOnAttributes) {
  Schema schema;
  TypeId other = schema.DefineTupleType("Other", {}, {}).value();
  TypeId person =
      schema
          .DefineTupleType("Person", {},
                           {{"Age", Schema::kIntType, kInvalidTypeId},
                            {"Peer", other, kInvalidTypeId}})
          .value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);
  Oid p = store.CreateObject(person).value();
  Oid o = store.CreateObject(other).value();

  // String into INTEGER attribute: rejected.
  EXPECT_TRUE(store.SetString(p, "Age", "old").IsTypeError());
  // Object reference into INTEGER attribute: rejected.
  EXPECT_TRUE(
      store.SetAttributeByName(p, "Age", AsrKey::FromOid(o)).IsTypeError());
  // Person reference where Other expected: rejected.
  EXPECT_TRUE(
      store.SetAttributeByName(p, "Peer", AsrKey::FromOid(p)).IsTypeError());
  // Correct reference accepted; NULL always accepted.
  EXPECT_TRUE(store.SetAttributeByName(p, "Peer", AsrKey::FromOid(o)).ok());
  EXPECT_TRUE(store.SetAttributeByName(p, "Peer", AsrKey::Null()).ok());
}

TEST(ObjectStoreBasics, SubtypeSubstitutability) {
  Schema schema;
  TypeId base = schema.DefineTupleType("Base", {}, {}).value();
  TypeId sub = schema.DefineTupleType("Sub", {base}, {}).value();
  TypeId holder =
      schema
          .DefineTupleType("Holder", {},
                           {{"Ref", base, kInvalidTypeId}})
          .value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);
  Oid h = store.CreateObject(holder).value();
  Oid s = store.CreateObject(sub).value();
  // "the actually referenced instance may be a subtype-instance" (§2).
  EXPECT_TRUE(store.SetAttributeByName(h, "Ref", AsrKey::FromOid(s)).ok());
}

TEST(ObjectStoreBasics, DecimalFixedPoint) {
  Schema schema;
  TypeId t = schema
                 .DefineTupleType("T", {},
                                  {{"Price", Schema::kDecimalType,
                                    kInvalidTypeId}})
                 .value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);
  Oid o = store.CreateObject(t).value();
  ASSERT_TRUE(store.SetDecimal(o, "Price", 1205.50).ok());
  EXPECT_EQ(store.GetAttributeByName(o, "Price")->ToInt(), 120550);
}

TEST(ObjectStoreBasics, SetSemantics) {
  Schema schema;
  TypeId item = schema.DefineTupleType("Item", {}, {}).value();
  TypeId items = schema.DefineSetType("Items", item).value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);

  Oid set = store.CreateSet(items).value();
  Oid a = store.CreateObject(item).value();
  Oid b = store.CreateObject(item).value();

  EXPECT_EQ(store.GetSet(set)->members.size(), 0u);
  ASSERT_TRUE(store.AddToSet(set, AsrKey::FromOid(a)).ok());
  ASSERT_TRUE(store.AddToSet(set, AsrKey::FromOid(b)).ok());
  // Duplicate insertion is a no-op.
  ASSERT_TRUE(store.AddToSet(set, AsrKey::FromOid(a)).ok());
  EXPECT_EQ(store.GetSet(set)->members.size(), 2u);
  EXPECT_TRUE(*store.SetContains(set, AsrKey::FromOid(a)));

  ASSERT_TRUE(store.RemoveFromSet(set, AsrKey::FromOid(a)).ok());
  EXPECT_FALSE(*store.SetContains(set, AsrKey::FromOid(a)));
  EXPECT_TRUE(store.RemoveFromSet(set, AsrKey::FromOid(a)).IsNotFound());
}

TEST(ObjectStoreBasics, SetElementTyping) {
  Schema schema;
  TypeId item = schema.DefineTupleType("Item", {}, {}).value();
  TypeId other = schema.DefineTupleType("Other", {}, {}).value();
  TypeId items = schema.DefineSetType("Items", item).value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);
  Oid set = store.CreateSet(items).value();
  Oid o = store.CreateObject(other).value();
  EXPECT_TRUE(store.AddToSet(set, AsrKey::FromOid(o)).IsTypeError());
  EXPECT_TRUE(store.AddToSet(set, AsrKey::FromInt(5)).IsTypeError());
  EXPECT_TRUE(store.AddToSet(set, AsrKey::Null()).IsInvalidArgument());
}

TEST(ObjectStoreBasics, SetGrowthRelocates) {
  Schema schema;
  TypeId item = schema.DefineTupleType("Item", {}, {}).value();
  TypeId items = schema.DefineSetType("Items", item).value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);

  Oid set = store.CreateSet(items).value();
  std::vector<Oid> members;
  for (int i = 0; i < 200; ++i) {
    Oid m = store.CreateObject(item).value();
    members.push_back(m);
    ASSERT_TRUE(store.AddToSet(set, AsrKey::FromOid(m)).ok());
  }
  Result<SetView> view = store.GetSet(set);
  ASSERT_TRUE(view.ok());
  std::set<uint64_t> got;
  for (AsrKey k : view->members) got.insert(k.raw());
  EXPECT_EQ(got.size(), 200u);
  for (Oid m : members) EXPECT_TRUE(got.count(m.raw()) > 0);
}

TEST(ObjectStoreBasics, DeleteObject) {
  Schema schema;
  TypeId t = schema.DefineTupleType("T", {}, {}).value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);
  Oid a = store.CreateObject(t).value();
  Oid b = store.CreateObject(t).value();
  EXPECT_EQ(store.ObjectCount(t), 2u);
  ASSERT_TRUE(store.DeleteObject(a).ok());
  EXPECT_FALSE(store.Exists(a));
  EXPECT_TRUE(store.Exists(b));
  EXPECT_EQ(store.ObjectCount(t), 1u);
  EXPECT_TRUE(store.DeleteObject(a).IsNotFound());
  EXPECT_TRUE(store.GetTuple(a).status().IsNotFound());
}

TEST(ObjectStoreBasics, ObjectSizePaddingControlsPageFill) {
  Schema schema;
  TypeId t = schema.DefineTupleType("T", {}, {}).value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);
  store.SetObjectSize(t, 500);
  for (int i = 0; i < 80; ++i) store.CreateObject(t).value();
  // floor((4056-4) / 504) = 8 objects per page -> 10 pages.
  EXPECT_EQ(store.PageCount(t), 10u);
}

TEST(ObjectStoreBasics, ScanVisitsEachLiveTupleOnce) {
  Schema schema;
  TypeId t = schema
                 .DefineTupleType("T", {},
                                  {{"V", Schema::kIntType, kInvalidTypeId}})
                 .value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);
  std::vector<Oid> oids;
  for (int i = 0; i < 50; ++i) {
    Oid o = store.CreateObject(t).value();
    ASSERT_TRUE(store.SetInt(o, "V", i).ok());
    oids.push_back(o);
  }
  ASSERT_TRUE(store.DeleteObject(oids[10]).ok());
  std::set<uint64_t> seen;
  ASSERT_TRUE(store
                  .ScanTuples(t,
                              [&](const TupleView& view) {
                                EXPECT_TRUE(seen.insert(view.oid.raw()).second);
                                return Status::OK();
                              })
                  .ok());
  EXPECT_EQ(seen.size(), 49u);
  EXPECT_EQ(seen.count(oids[10].raw()), 0u);
}

TEST(ObjectStoreBasics, ScanCostEqualsPageCount) {
  Schema schema;
  TypeId t = schema.DefineTupleType("T", {}, {}).value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);
  store.SetObjectSize(t, 400);
  for (int i = 0; i < 100; ++i) store.CreateObject(t).value();
  disk.ResetStats();
  ASSERT_TRUE(
      store.ScanTuples(t, [](const TupleView&) { return Status::OK(); }).ok());
  EXPECT_EQ(disk.stats().page_reads, store.PageCount(t));
}

TEST(ObjectStoreBasics, GetTuplesBatchesPageAccesses) {
  Schema schema;
  TypeId t = schema.DefineTupleType("T", {}, {}).value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);
  store.SetObjectSize(t, 400);  // ~10 objects per page
  std::vector<Oid> oids;
  for (int i = 0; i < 100; ++i) oids.push_back(store.CreateObject(t).value());

  disk.ResetStats();
  Result<std::vector<TupleView>> views = store.GetTuples(oids);
  ASSERT_TRUE(views.ok());
  EXPECT_EQ(views->size(), 100u);
  // All 100 objects over PageCount pages: one read per page.
  EXPECT_EQ(disk.stats().page_reads, store.PageCount(t));

  // Individual access costs one page each instead.
  disk.ResetStats();
  for (Oid o : oids) store.GetTuple(o).value();
  EXPECT_EQ(disk.stats().page_reads, 100u);
}

TEST(ObjectStoreBasics, ColocatedSetsShareOwnerPages) {
  Schema schema;
  TypeId target = schema.DefineTupleType("Target", {}, {}).value();
  TypeId tset = schema.DefineSetType("TSet", target).value();
  TypeId owner =
      schema
          .DefineTupleType("Owner", {}, {{"Kids", tset, kInvalidTypeId}})
          .value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);
  store.SetObjectSize(owner, 250);
  store.SetObjectSize(tset, 48);
  store.ColocateType(tset, owner);

  std::vector<Oid> targets;
  for (int i = 0; i < 4; ++i) targets.push_back(store.CreateObject(target).value());

  std::vector<Oid> owners;
  for (int i = 0; i < 64; ++i) {
    Oid o = store.CreateObject(owner).value();
    Oid s = store.CreateSet(tset).value();
    ASSERT_TRUE(store.SetAttributeByName(o, "Kids", AsrKey::FromOid(s)).ok());
    ASSERT_TRUE(store.AddToSet(s, AsrKey::FromOid(targets[i % 4])).ok());
    owners.push_back(o);
  }

  // GetAttributeTargets should decode sets from the owners' pages: total
  // reads == pages of the shared segment.
  disk.ResetStats();
  auto result = store.GetAttributeTargets(owners, "Kids");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 64u);
  EXPECT_EQ(disk.stats().page_reads, store.PageCount(owner));
}

TEST(ObjectStoreBasics, ScanWithTargetsExpandsSets) {
  auto base = asr::testing::MakeCompanyBase();
  gom::ObjectStore& store = *base->store;
  int edges = 0;
  ASSERT_TRUE(store
                  .ScanWithTargets(base->division_type, "Manufactures",
                                   [&](Oid, const std::vector<AsrKey>& kids) {
                                     edges += static_cast<int>(kids.size());
                                     return Status::OK();
                                   })
                  .ok());
  // Auto -> {560 SEC}; Truck -> {560 SEC, MB Trak}; Space has NULL.
  EXPECT_EQ(edges, 3);
}


TEST(ObjectStoreBasics, LargeSetsOverflowAcrossPages) {
  Schema schema;
  TypeId item = schema.DefineTupleType("Item", {}, {}).value();
  TypeId items = schema.DefineSetType("Items", item).value();
  TypeId owner =
      schema.DefineTupleType("Owner", {},
                             {{"Kids", items, kInvalidTypeId}})
          .value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 64);
  ObjectStore store(&schema, &buffers);

  // Far more members than a 4056-byte page can hold inline (~500).
  constexpr int kMembers = 2000;
  Oid set = store.CreateSet(items).value();
  std::vector<Oid> members;
  for (int i = 0; i < kMembers; ++i) {
    Oid m = store.CreateObject(item).value();
    members.push_back(m);
    ASSERT_TRUE(store.AddToSet(set, AsrKey::FromOid(m)).ok());
  }

  // Full membership via GetSet.
  Result<SetView> view = store.GetSet(set);
  ASSERT_TRUE(view.ok());
  std::set<uint64_t> got;
  for (AsrKey k : view->members) got.insert(k.raw());
  EXPECT_EQ(got.size(), static_cast<size_t>(kMembers));

  // Contains across the chain, both ends.
  EXPECT_TRUE(*store.SetContains(set, AsrKey::FromOid(members.front())));
  EXPECT_TRUE(*store.SetContains(set, AsrKey::FromOid(members.back())));
  // Duplicate insertion across the chain stays a no-op.
  ASSERT_TRUE(store.AddToSet(set, AsrKey::FromOid(members[1500])).ok());
  EXPECT_EQ(store.GetSet(set)->members.size(),
            static_cast<size_t>(kMembers));

  // Removal from a continuation record.
  ASSERT_TRUE(store.RemoveFromSet(set, AsrKey::FromOid(members[1777])).ok());
  EXPECT_FALSE(*store.SetContains(set, AsrKey::FromOid(members[1777])));
  EXPECT_EQ(store.GetSet(set)->members.size(),
            static_cast<size_t>(kMembers - 1));

  // ScanSets reports the set once, with full membership.
  int seen = 0;
  ASSERT_TRUE(store
                  .ScanSets(items,
                            [&](const SetView& v) {
                              ++seen;
                              EXPECT_EQ(v.members.size(),
                                        static_cast<size_t>(kMembers - 1));
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(seen, 1);

  // GetAttributeTargets expands the chain for owners too.
  Oid o = store.CreateObject(owner).value();
  ASSERT_TRUE(store.SetAttributeByName(o, "Kids", AsrKey::FromOid(set)).ok());
  auto targets = store.GetAttributeTargets({o}, "Kids").value();
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0].second.size(), static_cast<size_t>(kMembers - 1));

  ASSERT_TRUE(store.CheckConsistency().ok());

  // Deleting the set tombstones its chain as well.
  ASSERT_TRUE(store.DeleteObject(set).ok());
  ASSERT_TRUE(store.CheckConsistency().ok());
  seen = 0;
  ASSERT_TRUE(store
                  .ScanSets(items,
                            [&](const SetView&) {
                              ++seen;
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(seen, 0);
}

TEST(ObjectStoreBasics, OverflowedSetsWorkThroughPathMachinery) {
  // An access-path hop through a set larger than one page.
  Schema schema;
  TypeId leaf = schema
                    .DefineTupleType("Leaf", {},
                                     {{"Tag", Schema::kStringType,
                                       kInvalidTypeId}})
                    .value();
  TypeId leafset = schema.DefineSetType("LeafSet", leaf).value();
  TypeId root =
      schema.DefineTupleType("Root", {},
                             {{"Kids", leafset, kInvalidTypeId}})
          .value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 64);
  ObjectStore store(&schema, &buffers);

  Oid r = store.CreateObject(root).value();
  Oid set = store.CreateSet(leafset).value();
  ASSERT_TRUE(store.SetAttributeByName(r, "Kids", AsrKey::FromOid(set)).ok());
  for (int i = 0; i < 1200; ++i) {
    Oid l = store.CreateObject(leaf).value();
    std::string tag = "t";
    tag.append(std::to_string(i % 7));
    ASSERT_TRUE(store.SetString(l, "Tag", tag).ok());
    ASSERT_TRUE(store.AddToSet(set, AsrKey::FromOid(l)).ok());
  }
  int edges = 0;
  ASSERT_TRUE(store
                  .ScanWithTargets(root, "Kids",
                                   [&](Oid, const std::vector<AsrKey>& kids) {
                                     edges += static_cast<int>(kids.size());
                                     return Status::OK();
                                   })
                  .ok());
  EXPECT_EQ(edges, 1200);
}

TEST(ObjectStoreBasics, ErrorsOnInvalidOids) {
  Schema schema;
  TypeId t = schema.DefineTupleType("T", {}, {}).value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 0);
  ObjectStore store(&schema, &buffers);
  EXPECT_TRUE(store.GetTuple(Oid::Null()).status().IsInvalidArgument());
  EXPECT_TRUE(store.GetTuple(Oid::Make(t, 99)).status().IsNotFound());
  EXPECT_TRUE(store.CreateObject(Schema::kIntType).status().IsTypeError());
  EXPECT_TRUE(store.CreateSet(t).status().IsTypeError());
}

}  // namespace
}  // namespace asr::gom
