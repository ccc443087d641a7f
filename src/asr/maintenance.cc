// Incremental maintenance of access support relations (paper §6).
//
// The update model is edge-granular: inserting (removing) a reference along
// attribute A_{p+1} between an object u at path position p and a key w at
// position p+1 — the paper's ins_i operation, plus its inverse and
// single-valued assignment built on top. As in §6 we adopt the simplifying
// assumption that an object occurs at only one position of the path, so a
// single edge change touches one position.
//
// The algorithm materializes the paper's auxiliary relations I_l and I_r
// (§6.1) as *fragments*:
//   LeftFragments(u, p)   — maximal partial paths over columns [0..p] ending
//                           in u, NULL-padded on the left when they do not
//                           originate in t_0;
//   RightFragments(w, p+1) — maximal partial paths over [p+1..n] from w.
// Where the chosen extension stores the needed side (full: both; left: the
// left side; right: the right side) the fragments are read from the ASR's
// B+ trees; otherwise they are searched in the object representation — the
// exact cost asymmetry the paper's search_i^X formulas (Eq. 36) analyze.
#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "asr/access_support_relation.h"
#include "obs/span.h"

namespace asr {

namespace {

rel::Row Concat(const rel::Row& a, const rel::Row& b) {
  rel::Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

rel::Row Nulls(size_t count) { return rel::Row(count, AsrKey::Null()); }

void Dedup(std::vector<rel::Row>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const rel::Row& a, const rel::Row& b) {
              return std::lexicographical_compare(a.begin(), a.end(),
                                                  b.begin(), b.end());
            });
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

}  // namespace

Result<std::vector<AsrKey>> AccessSupportRelation::OutEdges(Oid u,
                                                            uint32_t p) {
  const PathStep& step = path_.step(p + 1);
  Result<uint32_t> idx =
      store_->schema().FindAttribute(u.type_id(), step.attr_name);
  ASR_RETURN_IF_ERROR(idx.status());
  Result<AsrKey> value = store_->GetAttribute(u, *idx);
  ASR_RETURN_IF_ERROR(value.status());
  if (value->IsNull()) return std::vector<AsrKey>{};
  if (!step.set_occurrence) return std::vector<AsrKey>{*value};
  Result<gom::SetView> set = store_->GetSet(value->ToOid());
  ASR_RETURN_IF_ERROR(set.status());
  return set->members;
}

Result<bool> AccessSupportRelation::AttrDefined(AsrKey x, uint32_t q) {
  if (!x.IsOid()) return false;
  const PathStep& step = path_.step(q + 1);
  Result<uint32_t> idx =
      store_->schema().FindAttribute(x.ToOid().type_id(), step.attr_name);
  ASR_RETURN_IF_ERROR(idx.status());
  Result<AsrKey> value = store_->GetAttribute(x.ToOid(), *idx);
  ASR_RETURN_IF_ERROR(value.status());
  return !value->IsNull();
}

Result<bool> AccessSupportRelation::HasOtherInEdge(AsrKey w, uint32_t p1,
                                                   Oid exclude) {
  ASR_CHECK(p1 >= 1);
  const uint32_t p = p1 - 1;
  AsrKey exclude_key =
      exclude.IsNull() ? AsrKey::Null() : AsrKey::FromOid(exclude);

  if (kind_ == ExtensionKind::kFull ||
      kind_ == ExtensionKind::kRightComplete) {
    int e_idx = decomposition_.PartitionCovering(p);
    if (partitions_[e_idx].last < p1) {
      e_idx = decomposition_.PartitionStartingAt(p);
    }
    ASR_CHECK(e_idx >= 0 && partitions_[e_idx].first <= p &&
              p1 <= partitions_[e_idx].last);
    // The extension carries every in-edge of w that matters for dangling
    // rows, so the ASR itself answers (no data search — §6.1's claim for
    // the full extension). Exception: a partition store shared with other
    // ASRs (§5.4) may still hold a sibling's not-yet-maintained
    // contribution for this very edge; fall through to the data search.
    if (partitions_[e_idx].store->owners <= 1 &&
        !partitions_[e_idx].store->quarantined) {
      uint32_t rel_p = p - partitions_[e_idx].first;
      bool found_other = false;
      Status st = PartitionEachRowWithValue(
          static_cast<size_t>(e_idx), p1, w, [&](const rel::Row& row) {
            AsrKey v = row[rel_p];
            if (!v.IsNull() && v != exclude_key) {
              found_other = true;
              return false;  // existence settled — stop the probe
            }
            return true;
          });
      ASR_RETURN_IF_ERROR(st);
      return found_other;
    }
  }

  // Fallback: search the object representation (extent scan of t_p).
  const PathStep& step = path_.step(p1);
  bool found = false;
  const gom::Schema& schema = store_->schema();
  for (TypeId t = 0; t < schema.type_count() && !found; ++t) {
    if (!schema.IsTuple(t) || !schema.IsSubtypeOf(t, step.domain_type)) {
      continue;
    }
    Status st = store_->ScanTuples(
        t, [&](const gom::TupleView& view) -> Status {
          if (found) return Status::OK();
          if (!exclude.IsNull() && view.oid == exclude) return Status::OK();
          Result<uint32_t> idx =
              schema.FindAttribute(view.oid.type_id(), step.attr_name);
          ASR_RETURN_IF_ERROR(idx.status());
          AsrKey value = view.attrs[*idx];
          if (value.IsNull()) return Status::OK();
          if (!step.set_occurrence) {
            if (value == w) found = true;
            return Status::OK();
          }
          Result<bool> contains = store_->SetContains(value.ToOid(), w);
          ASR_RETURN_IF_ERROR(contains.status());
          if (*contains) found = true;
          return Status::OK();
        });
    ASR_RETURN_IF_ERROR(st);
  }
  return found;
}

Result<std::vector<rel::Row>> AccessSupportRelation::LeftFragments(
    Oid u, uint32_t p) {
  if (p == 0) {
    // Collection-anchored ASRs: a t_0 object outside C contributes nothing.
    if (!options_.anchor_collection.IsNull()) {
      Result<bool> member = store_->SetContains(
          options_.anchor_collection, AsrKey::FromOid(u));
      ASR_RETURN_IF_ERROR(member.status());
      if (!*member) return std::vector<rel::Row>{};
    }
    return std::vector<rel::Row>{rel::Row{AsrKey::FromOid(u)}};
  }
  if ((kind_ == ExtensionKind::kFull ||
       kind_ == ExtensionKind::kLeftComplete) &&
      !degraded()) {
    return LeftFragmentsFromAsr(u, p);
  }
  // Quarantined partitions make the ASR-side read untrusted; the object
  // base is authoritative either way.
  return LeftFragmentsFromStore(u, p);
}

Result<std::vector<rel::Row>> AccessSupportRelation::RightFragments(
    AsrKey w, uint32_t p1) {
  if (p1 == path_.n()) {
    return std::vector<rel::Row>{rel::Row{w}};
  }
  if ((kind_ == ExtensionKind::kFull ||
       kind_ == ExtensionKind::kRightComplete) &&
      !degraded()) {
    return RightFragmentsFromAsr(w, p1);
  }
  return RightFragmentsFromStore(w, p1);
}

Result<std::vector<rel::Row>> AccessSupportRelation::LeftFragmentsFromAsr(
    Oid u, uint32_t p) {
  // Walk partitions right-to-left, extending fragments by the partition
  // slices that join at the current boundary column.
  std::vector<rel::Row> frags{rel::Row{AsrKey::FromOid(u)}};  // cover [c..p]
  uint32_t c = p;
  while (c > 0) {
    int p_idx = decomposition_.PartitionEndingAt(c);
    bool via_lookup = p_idx >= 0;
    if (!via_lookup) p_idx = decomposition_.PartitionCovering(c);
    const Partition& part = partitions_[p_idx];
    uint32_t f = part.first;
    std::vector<rel::Row> next;
    for (const rel::Row& frag : frags) {
      AsrKey v = frag.front();
      if (v.IsNull()) {
        // Already maximal: pad out to the new left boundary.
        next.push_back(Concat(Nulls(c - f), frag));
        continue;
      }
      Result<std::vector<rel::Row>> rows =
          PartitionRowsWithValue(static_cast<size_t>(p_idx), c, v);
      ASR_RETURN_IF_ERROR(rows.status());
      // Prefer slices that really extend v leftward over NULL-padded
      // dangler slices. In a private ASR the two never coexist for one
      // value; in a *shared* partition (§5.4) a dangler contributed by
      // another path may sit next to this path's real extensions and must
      // not fabricate a "maximal" fragment.
      bool extended = false;
      for (const rel::Row& row : *rows) {
        if (c - f >= 1 && row[c - f - 1].IsNull()) continue;  // dangler
        rel::Row prefix(row.begin(), row.begin() + (c - f));
        next.push_back(Concat(prefix, frag));
        extended = true;
      }
      if (!extended) {
        // No real extension: v's fragment is maximal here (or the slice is
        // missing entirely, e.g. the leftover of a longer left-complete
        // row); pad with NULLs.
        next.push_back(Concat(Nulls(c - f), frag));
      }
    }
    Dedup(&next);
    frags = std::move(next);
    c = f;
  }
  return frags;
}

Result<std::vector<rel::Row>> AccessSupportRelation::RightFragmentsFromAsr(
    AsrKey w, uint32_t p1) {
  const uint32_t n = path_.n();
  std::vector<rel::Row> frags{rel::Row{w}};  // cover [p1..c]
  uint32_t c = p1;
  while (c < n) {
    int p_idx = decomposition_.PartitionStartingAt(c);
    bool via_lookup = p_idx >= 0;
    if (!via_lookup) p_idx = decomposition_.PartitionCovering(c);
    const Partition& part = partitions_[p_idx];
    uint32_t l = part.last;
    std::vector<rel::Row> next;
    for (const rel::Row& frag : frags) {
      AsrKey v = frag.back();
      if (v.IsNull()) {
        next.push_back(Concat(frag, Nulls(l - c)));
        continue;
      }
      Result<std::vector<rel::Row>> rows =
          PartitionRowsWithValue(static_cast<size_t>(p_idx), c, v);
      ASR_RETURN_IF_ERROR(rows.status());
      // Mirror image of the dangler rule in LeftFragmentsFromAsr.
      bool extended = false;
      for (const rel::Row& row : *rows) {
        if (l - c >= 1 && row[row.size() - (l - c)].IsNull()) continue;
        rel::Row suffix(row.end() - (l - c), row.end());
        next.push_back(Concat(frag, suffix));
        extended = true;
      }
      if (!extended) {
        next.push_back(Concat(frag, Nulls(l - c)));
      }
    }
    Dedup(&next);
    frags = std::move(next);
    c = l;
  }
  return frags;
}

Result<std::vector<rel::Row>> AccessSupportRelation::LeftFragmentsFromStore(
    Oid u, uint32_t p) {
  // Backward breadth-first search over the object representation: one extent
  // scan of t_{q-1} per level (the exhaustive backward search the paper
  // charges canonical and right-complete extensions for, Eq. 36).
  const gom::Schema& schema = store_->schema();
  std::vector<std::unordered_set<AsrKey>> frontier(p + 1);
  // edges[q] maps a position-q key to its position-(q-1) predecessors.
  std::vector<std::unordered_map<AsrKey, std::vector<AsrKey>>> edges(p + 1);
  frontier[p].insert(AsrKey::FromOid(u));

  for (uint32_t q = p; q >= 1; --q) {
    const PathStep& step = path_.step(q);
    for (TypeId t = 0; t < schema.type_count(); ++t) {
      if (!schema.IsTuple(t) || !schema.IsSubtypeOf(t, step.domain_type)) {
        continue;
      }
      Status st = store_->ScanTuples(
          t, [&](const gom::TupleView& view) -> Status {
            Result<uint32_t> idx =
                schema.FindAttribute(view.oid.type_id(), step.attr_name);
            ASR_RETURN_IF_ERROR(idx.status());
            AsrKey value = view.attrs[*idx];
            if (value.IsNull()) return Status::OK();
            AsrKey self = AsrKey::FromOid(view.oid);
            if (!step.set_occurrence) {
              if (frontier[q].count(value) > 0) {
                edges[q][value].push_back(self);
                frontier[q - 1].insert(self);
              }
              return Status::OK();
            }
            Result<gom::SetView> set = store_->GetSet(value.ToOid());
            ASR_RETURN_IF_ERROR(set.status());
            for (AsrKey member : set->members) {
              if (frontier[q].count(member) > 0) {
                edges[q][member].push_back(self);
                frontier[q - 1].insert(self);
              }
            }
            return Status::OK();
          });
      ASR_RETURN_IF_ERROR(st);
    }
    if (frontier[q - 1].empty()) break;  // nothing reaches further left
  }

  // Assemble maximal fragments by depth-first expansion with per-level
  // memoization.
  std::vector<std::unordered_map<AsrKey, std::vector<rel::Row>>> memo(p + 1);
  std::function<const std::vector<rel::Row>&(AsrKey, uint32_t)> expand =
      [&](AsrKey x, uint32_t q) -> const std::vector<rel::Row>& {
    auto it = memo[q].find(x);
    if (it != memo[q].end()) return it->second;
    std::vector<rel::Row> out;
    if (q == 0) {
      out.push_back(rel::Row{x});
    } else {
      auto pit = edges[q].find(x);
      if (pit == edges[q].end() || pit->second.empty()) {
        out.push_back(Concat(Nulls(q), rel::Row{x}));
      } else {
        for (AsrKey pred : pit->second) {
          for (const rel::Row& f : expand(pred, q - 1)) {
            out.push_back(Concat(f, rel::Row{x}));
          }
        }
      }
    }
    Dedup(&out);
    return memo[q].emplace(x, std::move(out)).first->second;
  };
  return expand(AsrKey::FromOid(u), p);
}

Result<std::vector<rel::Row>> AccessSupportRelation::RightFragmentsFromStore(
    AsrKey w, uint32_t p1) {
  const uint32_t n = path_.n();
  const gom::Schema& schema = store_->schema();
  // Forward traversal: references are stored with the objects, so this is
  // the cheap direction (§6.1: "a forward search is cheaper than a backward
  // search").
  std::vector<std::unordered_map<AsrKey, std::vector<rel::Row>>> memo(n + 1);
  std::function<Result<std::vector<rel::Row>>(AsrKey, uint32_t)> expand =
      [&](AsrKey x, uint32_t q) -> Result<std::vector<rel::Row>> {
    auto it = memo[q].find(x);
    if (it != memo[q].end()) return it->second;
    std::vector<rel::Row> out;
    if (q == n || !x.IsOid()) {
      out.push_back(Concat(rel::Row{x}, Nulls(n - q)));
    } else {
      const PathStep& step = path_.step(q + 1);
      Result<uint32_t> idx =
          schema.FindAttribute(x.ToOid().type_id(), step.attr_name);
      ASR_RETURN_IF_ERROR(idx.status());
      Result<AsrKey> value = store_->GetAttribute(x.ToOid(), *idx);
      ASR_RETURN_IF_ERROR(value.status());
      std::vector<AsrKey> targets;
      if (!value->IsNull()) {
        if (step.set_occurrence) {
          Result<gom::SetView> set = store_->GetSet(value->ToOid());
          ASR_RETURN_IF_ERROR(set.status());
          targets = set->members;
        } else {
          targets.push_back(*value);
        }
      }
      if (targets.empty()) {
        out.push_back(Concat(rel::Row{x}, Nulls(n - q)));
      } else {
        for (AsrKey target : targets) {
          Result<std::vector<rel::Row>> sub = expand(target, q + 1);
          ASR_RETURN_IF_ERROR(sub.status());
          for (const rel::Row& f : *sub) {
            out.push_back(Concat(rel::Row{x}, f));
          }
        }
      }
    }
    Dedup(&out);
    memo[q].emplace(x, out);
    return out;
  };
  return expand(w, p1);
}

namespace {

bool LeftComplete(const rel::Row& frag) { return !frag.front().IsNull(); }
bool RightComplete(const rel::Row& frag) { return !frag.back().IsNull(); }

void Filter(std::vector<rel::Row>* rows, bool (*pred)(const rel::Row&)) {
  rows->erase(std::remove_if(rows->begin(), rows->end(),
                             [&](const rel::Row& r) { return !pred(r); }),
              rows->end());
}

}  // namespace

Status AccessSupportRelation::OnEdgeInserted(Oid u, uint32_t p, AsrKey w) {
  // Validate before logging intent: a rejected operation touches nothing
  // and must not dirty the journal.
  if (!options_.drop_set_columns) {
    return Status::NotSupported(
        "incremental maintenance requires drop_set_columns (rebuild instead)");
  }
  if (p >= path_.n()) {
    return Status::InvalidArgument("edge position out of range");
  }
  if (!store_->schema().IsSubtypeOf(u.type_id(), path_.type_at(p))) {
    return Status::TypeError("u is not an instance of t_" + std::to_string(p));
  }
  if (options_.transactional) {
    return RunEdgeTxn(MaintOp::kEdgeInsert, u, p, w);
  }
  // Journal envelope (§WAL discipline): intent precedes the first tree
  // write; commit requires every write to have reached the disk.
  const uint64_t seq = journal_.BeginEdge(MaintOp::kEdgeInsert, u, p, w);
  Status st = OnEdgeInsertedImpl(u, p, w);
  if (st.ok() && !AnyWriteError()) {
    journal_.Commit(seq);
    return st;
  }
  return MarkWritesLost(seq, "ins_i", st);
}

Status AccessSupportRelation::OnEdgeInsertedImpl(Oid u, uint32_t p, AsrKey w) {
  const uint32_t n = path_.n();
  maint_edge_inserts_.Inc();
  obs::ScopedSpan span("ins_i");
  if (span.active()) {
    span.Attr("position", static_cast<uint64_t>(p));
    span.Attr("extension", ExtensionKindName(kind_));
  }

  const bool need_left_complete = kind_ == ExtensionKind::kCanonical ||
                                  kind_ == ExtensionKind::kLeftComplete;
  const bool need_right_complete = kind_ == ExtensionKind::kCanonical ||
                                   kind_ == ExtensionKind::kRightComplete;

  // Compute the cheap (ASR-backed) side first and bail out early when it is
  // empty — the paper's ordering optimization in §6.1.
  std::vector<rel::Row> lefts;
  std::vector<rel::Row> rights;
  bool have_lefts = false;
  bool have_rights = false;

  if (kind_ == ExtensionKind::kLeftComplete) {
    obs::ScopedSpan frag("left_fragments");
    Result<std::vector<rel::Row>> l = LeftFragments(u, p);
    ASR_RETURN_IF_ERROR(l.status());
    lefts = std::move(*l);
    Filter(&lefts, LeftComplete);
    have_lefts = true;
    frag.Attr("fragments", static_cast<uint64_t>(lefts.size()));
    if (lefts.empty()) return Status::OK();  // u unreachable from t_0
  }
  if (kind_ == ExtensionKind::kRightComplete ||
      kind_ == ExtensionKind::kCanonical) {
    obs::ScopedSpan frag("right_fragments");
    Result<std::vector<rel::Row>> r = RightFragments(w, p + 1);
    ASR_RETURN_IF_ERROR(r.status());
    rights = std::move(*r);
    Filter(&rights, RightComplete);
    have_rights = true;
    frag.Attr("fragments", static_cast<uint64_t>(rights.size()));
    if (rights.empty()) return Status::OK();  // w does not reach t_n
  }

  if (!have_lefts) {
    obs::ScopedSpan frag("left_fragments");
    Result<std::vector<rel::Row>> l = LeftFragments(u, p);
    ASR_RETURN_IF_ERROR(l.status());
    lefts = std::move(*l);
    if (need_left_complete) Filter(&lefts, LeftComplete);
    frag.Attr("fragments", static_cast<uint64_t>(lefts.size()));
    if (lefts.empty()) return Status::OK();
  }
  if (!have_rights) {
    obs::ScopedSpan frag("right_fragments");
    Result<std::vector<rel::Row>> r = RightFragments(w, p + 1);
    ASR_RETURN_IF_ERROR(r.status());
    rights = std::move(*r);
    if (need_right_complete) Filter(&rights, RightComplete);
    frag.Attr("fragments", static_cast<uint64_t>(rights.size()));
    if (rights.empty()) return Status::OK();
  }

  // Install the new combined paths.
  {
    obs::ScopedSpan install("install_paths");
    install.Attr("rows", static_cast<uint64_t>(lefts.size() * rights.size()));
    for (const rel::Row& l : lefts) {
      for (const rel::Row& r : rights) {
        InsertRow(Concat(l, r));
      }
    }
  }

  // Retract dangling rows that the new edge completes.
  obs::ScopedSpan retract("retract_danglers");
  if (kind_ == ExtensionKind::kFull ||
      kind_ == ExtensionKind::kLeftComplete) {
    Result<std::vector<AsrKey>> out = OutEdges(u, p);
    ASR_RETURN_IF_ERROR(out.status());
    if (out->size() == 1 && (*out)[0] == w) {
      for (const rel::Row& l : lefts) {
        EraseRow(Concat(l, Nulls(n - p)));
      }
    }
  }
  if (kind_ == ExtensionKind::kFull ||
      kind_ == ExtensionKind::kRightComplete) {
    Result<bool> other = HasOtherInEdge(w, p + 1, u);
    ASR_RETURN_IF_ERROR(other.status());
    if (!*other) {
      for (const rel::Row& r : rights) {
        EraseRow(Concat(Nulls(p + 1), r));
      }
    }
  }
  return ParanoidValidate();
}

Status AccessSupportRelation::OnAttributeAssigned(Oid u, uint32_t p,
                                                  AsrKey old_value,
                                                  AsrKey new_value) {
  if (old_value == new_value) return Status::OK();
  // Install the new edge BEFORE retracting the old one: the removal erases
  // u's rows, and for extensions whose fragments are read from the ASR
  // (full, left-complete) the insertion needs u's left fragments to still be
  // discoverable there.
  if (!new_value.IsNull()) {
    ASR_RETURN_IF_ERROR(OnEdgeInserted(u, p, new_value));
  }
  if (!old_value.IsNull()) {
    ASR_RETURN_IF_ERROR(OnEdgeRemoved(u, p, old_value));
  }
  return Status::OK();
}

Status AccessSupportRelation::OnEdgeRemoved(Oid u, uint32_t p, AsrKey w) {
  if (!options_.drop_set_columns) {
    return Status::NotSupported(
        "incremental maintenance requires drop_set_columns (rebuild instead)");
  }
  if (p >= path_.n()) {
    return Status::InvalidArgument("edge position out of range");
  }
  if (!store_->schema().IsSubtypeOf(u.type_id(), path_.type_at(p))) {
    return Status::TypeError("u is not an instance of t_" + std::to_string(p));
  }
  if (options_.transactional) {
    return RunEdgeTxn(MaintOp::kEdgeRemove, u, p, w);
  }
  const uint64_t seq = journal_.BeginEdge(MaintOp::kEdgeRemove, u, p, w);
  Status st = OnEdgeRemovedImpl(u, p, w);
  if (st.ok() && !AnyWriteError()) {
    journal_.Commit(seq);
    return st;
  }
  return MarkWritesLost(seq, "del_i", st);
}

Status AccessSupportRelation::OnEdgeRemovedImpl(Oid u, uint32_t p, AsrKey w) {
  const uint32_t n = path_.n();
  maint_edge_removes_.Inc();
  obs::ScopedSpan span("rem_i");
  if (span.active()) {
    span.Attr("position", static_cast<uint64_t>(p));
    span.Attr("extension", ExtensionKindName(kind_));
  }

  const bool need_left_complete = kind_ == ExtensionKind::kCanonical ||
                                  kind_ == ExtensionKind::kLeftComplete;
  const bool need_right_complete = kind_ == ExtensionKind::kCanonical ||
                                   kind_ == ExtensionKind::kRightComplete;

  std::vector<rel::Row> lefts;
  {
    obs::ScopedSpan frag("left_fragments");
    Result<std::vector<rel::Row>> lres = LeftFragments(u, p);
    ASR_RETURN_IF_ERROR(lres.status());
    lefts = std::move(*lres);
    if (need_left_complete) Filter(&lefts, LeftComplete);
    frag.Attr("fragments", static_cast<uint64_t>(lefts.size()));
  }

  std::vector<rel::Row> rights;
  {
    obs::ScopedSpan frag("right_fragments");
    Result<std::vector<rel::Row>> rres = RightFragments(w, p + 1);
    ASR_RETURN_IF_ERROR(rres.status());
    rights = std::move(*rres);
    if (need_right_complete) Filter(&rights, RightComplete);
    frag.Attr("fragments", static_cast<uint64_t>(rights.size()));
  }

  // Retract the combined paths that ran over the removed edge.
  {
    obs::ScopedSpan retract("retract_paths");
    retract.Attr("rows", static_cast<uint64_t>(lefts.size() * rights.size()));
    for (const rel::Row& l : lefts) {
      for (const rel::Row& r : rights) {
        EraseRow(Concat(l, r));
      }
    }
  }

  obs::ScopedSpan reinstate("reinstate_danglers");
  // Reinstate dangling rows where the removed edge was the last one. A
  // dangling row only belongs in the extension when the object still occurs
  // in some auxiliary relation (Def. 3.3): an object whose attribute became
  // NULL and that has no other edges vanishes from the extension entirely,
  // whereas an *empty set* still contributes its (u, NULL) tuple.
  if (!lefts.empty() &&
      (kind_ == ExtensionKind::kFull ||
       kind_ == ExtensionKind::kLeftComplete)) {
    Result<std::vector<AsrKey>> out = OutEdges(u, p);
    ASR_RETURN_IF_ERROR(out.status());
    if (out->empty()) {
      Result<bool> defined = AttrDefined(AsrKey::FromOid(u), p);
      ASR_RETURN_IF_ERROR(defined.status());
      for (const rel::Row& l : lefts) {
        // Row (l, u, NULL...) exists iff u is in E_p (defined, empty set)
        // or l arrives over a real in-edge (u matched in E_{p-1}).
        bool legit = *defined || (p > 0 && !l[p - 1].IsNull());
        if (legit) InsertRow(Concat(l, Nulls(n - p)));
      }
    }
  }
  if (!rights.empty() &&
      (kind_ == ExtensionKind::kFull ||
       kind_ == ExtensionKind::kRightComplete)) {
    Result<bool> other = HasOtherInEdge(w, p + 1, Oid::Null());
    ASR_RETURN_IF_ERROR(other.status());
    if (!*other) {
      bool w_defined = false;
      if (p + 1 < n && w.IsOid()) {
        Result<bool> defined = AttrDefined(w, p + 1);
        ASR_RETURN_IF_ERROR(defined.status());
        w_defined = *defined;
      }
      for (const rel::Row& r : rights) {
        // Row (NULL..., w, r) exists iff w is in E_{p+1} (defined attribute,
        // possibly an empty set) or r leaves over a real out-edge.
        bool legit = w_defined || (r.size() >= 2 && !r[1].IsNull());
        if (legit) InsertRow(Concat(Nulls(p + 1), r));
      }
    }
  }
  return ParanoidValidate();
}

}  // namespace asr
