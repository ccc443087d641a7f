#include "workload/synthetic_base.h"

#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"

namespace asr::workload {

namespace {

// `prefix` followed by `i`, as in "T3" or "A1". Appended, not written
// `"T" + std::to_string(i)`: GCC 12 at -O3 reports a false -Wrestrict on
// that form.
std::string Named(const char* prefix, uint32_t i) {
  return std::string(prefix).append(std::to_string(i));
}

}  // namespace

Result<std::unique_ptr<SyntheticBase>> SyntheticBase::Generate(
    const cost::ApplicationProfile& profile, const GenerateOptions& options) {
  ASR_RETURN_IF_ERROR(profile.Validate());
  const uint32_t n = profile.n;

  std::unique_ptr<SyntheticBase> base(
      new SyntheticBase(options.buffer_capacity, options.disk));
  gom::Schema& schema = base->schema_;

  // Define types from the path's far end backwards so range types exist.
  std::vector<TypeId> types(n + 1, kInvalidTypeId);
  std::vector<TypeId> set_types(n + 1, kInvalidTypeId);
  {
    Result<TypeId> tn = schema.DefineTupleType(Named("T", n), {}, {});
    ASR_RETURN_IF_ERROR(tn.status());
    types[n] = *tn;
  }
  for (uint32_t i = n; i-- > 0;) {
    uint32_t fan = static_cast<uint32_t>(std::llround(profile.fan[i]));
    TypeId range = types[i + 1];
    if (fan > 1) {
      Result<TypeId> set =
          schema.DefineSetType(Named("S", i + 1), types[i + 1]);
      ASR_RETURN_IF_ERROR(set.status());
      set_types[i + 1] = *set;
      range = *set;
    }
    std::vector<gom::Attribute> attrs{
        gom::Attribute{Named("A", i + 1), range, kInvalidTypeId}};
    Result<TypeId> t = schema.DefineTupleType(Named("T", i), {}, attrs);
    ASR_RETURN_IF_ERROR(t.status());
    types[i] = *t;
  }

  // Physical sizing: pad objects to size_i; pre-size set instances to their
  // final fan so they never relocate away from their co-located owner.
  gom::ObjectStore& store = base->store_;
  for (uint32_t i = 0; i <= n; ++i) {
    if (!profile.size.empty()) {
      store.SetObjectSize(types[i],
                          static_cast<uint32_t>(profile.size[i]));
    }
    if (i >= 1 && set_types[i] != kInvalidTypeId) {
      uint32_t fan = static_cast<uint32_t>(std::llround(profile.fan[i - 1]));
      store.SetObjectSize(set_types[i], 16 + 8 * fan);
      store.ColocateType(set_types[i], types[i - 1]);
    }
  }

  Rng rng(options.seed);

  // Pre-draw, per level, which objects will have a defined A_{i+1} (d_i of
  // them), so set instances are created only for those — right after their
  // owner, landing on the same page.
  std::vector<std::unordered_set<uint64_t>> defined(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t count = static_cast<uint64_t>(std::llround(profile.c[i]));
    uint64_t d = std::min(count,
                          static_cast<uint64_t>(std::llround(profile.d[i])));
    for (uint64_t idx : rng.SampleWithoutReplacement(count, d)) {
      defined[i].insert(idx);
    }
  }

  base->level_types_ = types;
  base->levels_.resize(n + 1);
  // Per level i < n: owner index -> its set instance.
  std::vector<std::unordered_map<uint64_t, Oid>> owner_sets(n);
  for (uint32_t i = 0; i <= n; ++i) {
    uint64_t count = static_cast<uint64_t>(std::llround(profile.c[i]));
    base->levels_[i].reserve(count);
    const bool has_sets = i < n && set_types[i + 1] != kInvalidTypeId;
    for (uint64_t k = 0; k < count; ++k) {
      Result<Oid> oid = store.CreateObject(types[i]);
      ASR_RETURN_IF_ERROR(oid.status());
      base->levels_[i].push_back(*oid);
      if (has_sets && defined[i].count(k) > 0) {
        Result<Oid> set = store.CreateSet(set_types[i + 1]);
        ASR_RETURN_IF_ERROR(set.status());
        owner_sets[i].emplace(k, *set);
      }
    }
  }

  // Wire references: fan_i distinct targets per defined owner. With the
  // default sharing assumption targets are drawn uniformly from the whole
  // next level; an explicit shar_i > 1 concentrates them on a pool of
  // e_{i+1} = d_i * fan_i / shar_i objects (Fig. 3), realizing the skew.
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t fan = static_cast<uint32_t>(std::llround(profile.fan[i]));
    uint64_t target_count = base->levels_[i + 1].size();
    std::string attr = Named("A", i + 1);
    const bool has_sets = set_types[i + 1] != kInvalidTypeId;

    std::vector<uint64_t> pool;
    if (!profile.shar.empty() && profile.shar[i] > 1.0) {
      uint64_t pool_size = static_cast<uint64_t>(std::llround(
          profile.d[i] * profile.fan[i] / profile.shar[i]));
      pool_size = std::max<uint64_t>(fan, std::min(pool_size, target_count));
      pool = rng.SampleWithoutReplacement(target_count, pool_size);
    }
    auto target_at = [&](uint64_t idx) {
      return pool.empty() ? base->levels_[i + 1][idx]
                          : base->levels_[i + 1][pool[idx]];
    };
    uint64_t domain = pool.empty() ? target_count : pool.size();

    for (uint64_t owner_idx : defined[i]) {
      Oid owner = base->levels_[i][owner_idx];
      if (!has_sets) {
        ASR_RETURN_IF_ERROR(store.SetAttributeByName(
            owner, attr, AsrKey::FromOid(target_at(rng.Uniform(domain)))));
        continue;
      }
      Oid set_oid = owner_sets[i].at(owner_idx);
      ASR_RETURN_IF_ERROR(
          store.SetAttributeByName(owner, attr, AsrKey::FromOid(set_oid)));
      std::vector<uint64_t> picks = rng.SampleWithoutReplacement(
          domain, std::min<uint64_t>(fan, domain));
      for (uint64_t pick : picks) {
        ASR_RETURN_IF_ERROR(
            store.AddToSet(set_oid, AsrKey::FromOid(target_at(pick))));
      }
    }
  }

  // Build the path expression T0.A1.....An.
  std::vector<std::string> attrs;
  for (uint32_t i = 1; i <= n; ++i) attrs.push_back(Named("A", i));
  Result<PathExpression> path =
      PathExpression::Create(schema, types[0], attrs);
  ASR_RETURN_IF_ERROR(path.status());
  base->path_.emplace(std::move(*path));
  return base;
}

}  // namespace asr::workload
