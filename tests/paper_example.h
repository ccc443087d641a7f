// Shared test fixture: the Company database of the paper's Figure 2.
//
//   type Company is {Division};
//   type Division is [Name: STRING, Manufactures: ProdSET];
//   type ProdSET is {Product};
//   type Product is [Name: STRING, Composition: BasePartSET];
//   type BasePartSET is {BasePart};
//   type BasePart is [Name: STRING, Price: DECIMAL];
//
// Extension (Figure 2): divisions Auto (-> ProdSET {560 SEC}), Truck
// (-> ProdSET {560 SEC, MB Trak}), Space (Manufactures NULL); products
// 560 SEC (-> {Door}), MB Trak (Composition NULL), Sausage (-> {Pepper});
// i10 is a BasePartSET referenced by no product.
#ifndef ASR_TESTS_PAPER_EXAMPLE_H_
#define ASR_TESTS_PAPER_EXAMPLE_H_

#include <memory>

#include "asr/path_expression.h"
#include "common/macros.h"
#include "gom/object_store.h"
#include "gom/type_system.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"

namespace asr::testing {

struct CompanyBase {
  CompanyBase() = default;
  explicit CompanyBase(const storage::DiskOptions& disk_options,
                       size_t buffer_capacity = 0)
      : disk(disk_options), buffers(&disk, buffer_capacity) {}

  gom::Schema schema;
  storage::Disk disk;
  storage::BufferManager buffers{&disk, 0};
  std::unique_ptr<gom::ObjectStore> store;

  TypeId division_type = kInvalidTypeId;
  TypeId prodset_type = kInvalidTypeId;
  TypeId product_type = kInvalidTypeId;
  TypeId basepartset_type = kInvalidTypeId;
  TypeId basepart_type = kInvalidTypeId;

  // The paper's instance names.
  Oid auto_division, truck_division, space_division;   // i1, i2, i3
  Oid prodset_auto, prodset_truck;                     // i4, i5
  Oid sec560, mbtrak, sausage;                         // i6, i9, i11
  Oid parts_560, parts_unused, parts_sausage;          // i7, i10, i13
  Oid door, pepper;                                    // i8, i14

  AsrKey Key(Oid oid) const { return AsrKey::FromOid(oid); }
  AsrKey Name(const char* s) {
    return AsrKey::FromString(s, store->string_dict());
  }
};

// `disk_options` picks the storage backend; the default follows the
// environment (like a bare Disk), so ASR_STORAGE_BACKEND=file flips every
// fixture-based test at once. `buffer_capacity` sizes the object store's
// pool (0 = the metering default).
inline std::unique_ptr<CompanyBase> MakeCompanyBase(
    const storage::DiskOptions& disk_options = storage::DiskOptions::FromEnv(),
    size_t buffer_capacity = 0) {
  auto base = std::make_unique<CompanyBase>(disk_options, buffer_capacity);
  gom::Schema& s = base->schema;

  TypeId basepart =
      s.DefineTupleType(
           "BasePart", {},
           {{"Name", gom::Schema::kStringType, kInvalidTypeId},
            {"Price", gom::Schema::kDecimalType, kInvalidTypeId}})
          .value();
  TypeId basepartset = s.DefineSetType("BasePartSET", basepart).value();
  TypeId product =
      s.DefineTupleType("Product", {},
                        {{"Name", gom::Schema::kStringType, kInvalidTypeId},
                         {"Composition", basepartset, kInvalidTypeId}})
          .value();
  TypeId prodset = s.DefineSetType("ProdSET", product).value();
  TypeId division =
      s.DefineTupleType("Division", {},
                        {{"Name", gom::Schema::kStringType, kInvalidTypeId},
                         {"Manufactures", prodset, kInvalidTypeId}})
          .value();

  base->division_type = division;
  base->prodset_type = prodset;
  base->product_type = product;
  base->basepartset_type = basepartset;
  base->basepart_type = basepart;

  base->store =
      std::make_unique<gom::ObjectStore>(&base->schema, &base->buffers);
  gom::ObjectStore& st = *base->store;

  auto obj = [&](TypeId t) { return st.CreateObject(t).value(); };
  auto set = [&](TypeId t) { return st.CreateSet(t).value(); };

  base->auto_division = obj(division);
  base->truck_division = obj(division);
  base->space_division = obj(division);
  base->prodset_auto = set(prodset);
  base->prodset_truck = set(prodset);
  base->sec560 = obj(product);
  base->mbtrak = obj(product);
  base->sausage = obj(product);
  base->parts_560 = set(basepartset);
  base->parts_unused = set(basepartset);
  base->parts_sausage = set(basepartset);
  base->door = obj(basepart);
  base->pepper = obj(basepart);

  ASR_CHECK(st.SetString(base->auto_division, "Name", "Auto").ok());
  ASR_CHECK(st.SetString(base->truck_division, "Name", "Truck").ok());
  ASR_CHECK(st.SetString(base->space_division, "Name", "Space").ok());
  ASR_CHECK(st.SetRef(base->auto_division, "Manufactures",
                      base->prodset_auto).ok());
  ASR_CHECK(st.SetRef(base->truck_division, "Manufactures",
                      base->prodset_truck).ok());
  // Space division: Manufactures stays NULL.

  ASR_CHECK(st.AddToSet(base->prodset_auto,
                        AsrKey::FromOid(base->sec560)).ok());
  ASR_CHECK(st.AddToSet(base->prodset_truck,
                        AsrKey::FromOid(base->sec560)).ok());
  ASR_CHECK(st.AddToSet(base->prodset_truck,
                        AsrKey::FromOid(base->mbtrak)).ok());

  ASR_CHECK(st.SetString(base->sec560, "Name", "560 SEC").ok());
  ASR_CHECK(st.SetString(base->mbtrak, "Name", "MB Trak").ok());
  ASR_CHECK(st.SetString(base->sausage, "Name", "Sausage").ok());
  ASR_CHECK(st.SetRef(base->sec560, "Composition", base->parts_560).ok());
  // MB Trak: Composition stays NULL.
  ASR_CHECK(st.SetRef(base->sausage, "Composition", base->parts_sausage).ok());

  ASR_CHECK(st.AddToSet(base->parts_560, AsrKey::FromOid(base->door)).ok());
  ASR_CHECK(st.AddToSet(base->parts_unused,
                        AsrKey::FromOid(base->door)).ok());
  ASR_CHECK(st.AddToSet(base->parts_sausage,
                        AsrKey::FromOid(base->pepper)).ok());

  ASR_CHECK(st.SetString(base->door, "Name", "Door").ok());
  ASR_CHECK(st.SetDecimal(base->door, "Price", 1205.50).ok());
  ASR_CHECK(st.SetString(base->pepper, "Name", "Pepper").ok());
  ASR_CHECK(st.SetDecimal(base->pepper, "Price", 0.12).ok());

  return base;
}

// The path Division.Manufactures.Composition.Name of the paper's §3 example.
inline PathExpression MakeCompanyPath(const CompanyBase& base) {
  return PathExpression::Parse(base.schema, base.division_type,
                               "Manufactures.Composition.Name")
      .value();
}

}  // namespace asr::testing

#endif  // ASR_TESTS_PAPER_EXAMPLE_H_
