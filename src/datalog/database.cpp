#include "datalog/database.hpp"

#include "common/hash.hpp"
#include "common/logging.hpp"

namespace treedl::datalog {

namespace {

constexpr uint32_t kNoBucket = std::numeric_limits<uint32_t>::max();

/// Seed of one probe key's hash. KeyHash over a compact key array and
/// KeyHashAt over a stored row must produce identical fold sequences, so
/// both start here and combine values in ascending mask-position order.
size_t MaskSeed(uint32_t mask) {
  size_t seed = 0xcbf29ce484222325ULL;
  HashCombine(&seed, mask);
  return seed;
}

}  // namespace

FactStore::FactStore(const Signature& sig) {
  relations_.resize(static_cast<size_t>(sig.size()));
  for (PredicateId p = 0; p < sig.size(); ++p) {
    Relation& rel = relations_[static_cast<size_t>(p)];
    rel.arity = sig.arity(p);
    TREEDL_CHECK(rel.arity <= kMaxArity) << "arity too large for pattern masks";
    rel.full_mask = rel.arity == 0 ? 0 : (1u << rel.arity) - 1;
    rel.columns.resize(static_cast<size_t>(rel.arity));
    rel.dedup.mask = rel.full_mask;
  }
}

size_t FactStore::KeyHash(uint32_t mask, const ElementId* key) {
  size_t seed = MaskSeed(mask);
  for (uint32_t m = mask, k = 0; m != 0; m &= m - 1, ++k) {
    HashCombine(&seed, key[k]);
  }
  return seed;
}

size_t FactStore::KeyHashAt(const Relation& rel, uint32_t mask,
                            uint32_t row) const {
  size_t seed = MaskSeed(mask);
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    int pos = __builtin_ctz(m);
    HashCombine(&seed, rel.columns[static_cast<size_t>(pos)][row]);
  }
  return seed;
}

bool FactStore::KeyEqualsAt(const Relation& rel, uint32_t mask, uint32_t row,
                            const ElementId* key) const {
  size_t k = 0;
  for (uint32_t m = mask; m != 0; m &= m - 1, ++k) {
    int pos = __builtin_ctz(m);
    if (rel.columns[static_cast<size_t>(pos)][row] != key[k]) return false;
  }
  return true;
}

bool FactStore::RowsKeyEqual(const Relation& rel, uint32_t mask, uint32_t a,
                             uint32_t b) const {
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    size_t pos = static_cast<size_t>(__builtin_ctz(m));
    if (rel.columns[pos][a] != rel.columns[pos][b]) return false;
  }
  return true;
}

uint32_t FactStore::FindBucket(const Relation& rel, const PatternIndex& index,
                               size_t hash, const ElementId* key) const {
  if (index.slots.empty()) return kNoBucket;
  size_t slot_mask = index.slots.size() - 1;
  for (size_t i = hash & slot_mask;; i = (i + 1) & slot_mask) {
    uint32_t entry = index.slots[i];
    if (entry == 0) return kNoBucket;
    const Bucket& bucket = index.buckets[entry - 1];
    if (bucket.hash == hash && KeyEqualsAt(rel, index.mask, bucket.head, key)) {
      return entry - 1;
    }
  }
}

void FactStore::RehashSlots(Relation* rel, PatternIndex* index,
                            size_t slot_count) {
  index->slots.clear();
  index->slots.append_fill(slot_count, 0, &rel->arena);
  size_t slot_mask = slot_count - 1;
  for (size_t b = 0; b < index->buckets.size(); ++b) {
    size_t i = index->buckets[b].hash & slot_mask;
    while (index->slots[i] != 0) i = (i + 1) & slot_mask;
    index->slots[i] = static_cast<uint32_t>(b) + 1;
  }
}

void FactStore::InsertRow(Relation* rel, PatternIndex* index, uint32_t row,
                          size_t hash) {
  // `next` covers exactly rows [0, num_rows): BuildIndex inserts every
  // existing row and Add inserts each new row into every built index.
  index->next.push_back(kNoRow, &rel->arena);
  // Append to an existing bucket's chain (insertion order is the chain
  // order — this is what keeps indexed enumeration bit-identical to a
  // filtered full scan).
  if (!index->slots.empty()) {
    size_t slot_mask = index->slots.size() - 1;
    for (size_t i = hash & slot_mask; index->slots[i] != 0;
         i = (i + 1) & slot_mask) {
      Bucket& bucket = index->buckets[index->slots[i] - 1];
      if (bucket.hash == hash &&
          RowsKeyEqual(*rel, index->mask, bucket.head, row)) {
        index->next[bucket.tail] = row;
        bucket.tail = row;
        return;
      }
    }
  }
  // New key: new bucket, keeping slot load at most 1/2.
  if ((index->buckets.size() + 1) * 2 > index->slots.size()) {
    RehashSlots(rel, index,
                index->slots.empty() ? 16 : index->slots.size() * 2);
  }
  index->buckets.push_back(Bucket{hash, row, row}, &rel->arena);
  size_t slot_mask = index->slots.size() - 1;
  size_t i = hash & slot_mask;
  while (index->slots[i] != 0) i = (i + 1) & slot_mask;
  index->slots[i] = static_cast<uint32_t>(index->buckets.size());
}

void FactStore::BuildIndex(Relation* rel, PatternIndex* index, uint32_t mask) {
  index->mask = mask;
  for (uint32_t row = 0; row < rel->num_rows; ++row) {
    InsertRow(rel, index, row, KeyHashAt(*rel, mask, row));
  }
}

bool FactStore::Add(PredicateId p, const Tuple& t) {
  Relation& rel = relations_[static_cast<size_t>(p)];
  TREEDL_DCHECK(t.size() == static_cast<size_t>(rel.arity));
  if (rel.arity == 0) {
    // Nullary relation: a single possible (empty) tuple, no columns.
    if (rel.num_rows > 0) return false;
    rel.num_rows = 1;
    ++total_;
    return true;
  }
  size_t hash = KeyHash(rel.full_mask, t.data());
  if (FindBucket(rel, rel.dedup, hash, t.data()) != kNoBucket) return false;
  uint32_t row = rel.num_rows++;
  for (int pos = 0; pos < rel.arity; ++pos) {
    rel.columns[static_cast<size_t>(pos)].push_back(
        t[static_cast<size_t>(pos)], &rel.arena);
  }
  InsertRow(&rel, &rel.dedup, row, hash);
  for (PatternIndex& index : rel.indexes) {
    InsertRow(&rel, &index, row, KeyHashAt(rel, index.mask, row));
  }
  ++total_;
  return true;
}

bool FactStore::Contains(PredicateId p, const Tuple& t) const {
  return FindRow(p, t) != kNoRow;
}

Tuple FactStore::Row(PredicateId p, uint32_t row) const {
  const Relation& rel = relations_[static_cast<size_t>(p)];
  Tuple out(static_cast<size_t>(rel.arity));
  for (int pos = 0; pos < rel.arity; ++pos) {
    out[static_cast<size_t>(pos)] = rel.columns[static_cast<size_t>(pos)][row];
  }
  return out;
}

uint32_t FactStore::FindRow(PredicateId p, const Tuple& t) const {
  const Relation& rel = relations_[static_cast<size_t>(p)];
  TREEDL_DCHECK(t.size() == static_cast<size_t>(rel.arity));
  if (rel.arity == 0) return rel.num_rows > 0 ? 0 : kNoRow;
  uint32_t bucket =
      FindBucket(rel, rel.dedup, KeyHash(rel.full_mask, t.data()), t.data());
  return bucket == kNoBucket ? kNoRow : rel.dedup.buckets[bucket].head;
}

void FactStore::EnsureIndex(PredicateId p, uint32_t mask) {
  Relation& rel = relations_[static_cast<size_t>(p)];
  // The dedup index already serves fully-bound probes; mask 0 is a scan.
  if (mask == 0 || mask == rel.full_mask) return;
  for (const PatternIndex& index : rel.indexes) {
    if (index.mask == mask) return;
  }
  rel.indexes.emplace_back();
  BuildIndex(&rel, &rel.indexes.back(), mask);
}

uint32_t FactStore::Probe(PredicateId p, uint32_t mask, const ElementId* key) {
  Relation& rel = relations_[static_cast<size_t>(p)];
  TREEDL_DCHECK(mask != 0);
  const PatternIndex* index = nullptr;
  if (mask == rel.full_mask) {
    index = &rel.dedup;
  } else {
    EnsureIndex(p, mask);
    for (const PatternIndex& candidate : rel.indexes) {
      if (candidate.mask == mask) {
        index = &candidate;
        break;
      }
    }
  }
  uint32_t bucket = FindBucket(rel, *index, KeyHash(mask, key), key);
  return bucket == kNoBucket ? kNoRow : index->buckets[bucket].head;
}

uint32_t FactStore::NextRow(PredicateId p, uint32_t mask, uint32_t row) const {
  const Relation& rel = relations_[static_cast<size_t>(p)];
  if (mask == rel.full_mask) return rel.dedup.next[row];
  for (const PatternIndex& index : rel.indexes) {
    if (index.mask == mask) return index.next[row];
  }
  TREEDL_CHECK(false) << "NextRow on an unbuilt index";
  return kNoRow;
}

ResolvedAtom ResolveAtom(const Atom& atom, Structure* domain) {
  ResolvedAtom out;
  out.predicate = atom.predicate;
  out.const_args.reserve(atom.args.size());
  out.vars.reserve(atom.args.size());
  for (const Term& t : atom.args) {
    if (t.IsVar()) {
      out.const_args.push_back(kUnbound);
      out.vars.push_back(t.variable);
    } else {
      // Constants mentioned only in the program are interned into the domain
      // (they simply never match EDB facts unless the EDB also uses them).
      out.const_args.push_back(domain->AddElement(t.constant));
      out.vars.push_back(-1);
    }
  }
  return out;
}

bool FullyBound(const ResolvedAtom& atom, const Binding& binding) {
  for (size_t i = 0; i < atom.vars.size(); ++i) {
    if (atom.vars[i] >= 0 &&
        binding[static_cast<size_t>(atom.vars[i])] == kUnbound) {
      return false;
    }
  }
  return true;
}

Tuple GroundArgs(const ResolvedAtom& atom, const Binding& binding) {
  Tuple out(atom.const_args.size());
  for (size_t i = 0; i < atom.const_args.size(); ++i) {
    if (atom.vars[i] >= 0) {
      out[i] = binding[static_cast<size_t>(atom.vars[i])];
      TREEDL_DCHECK(out[i] != kUnbound);
    } else {
      out[i] = atom.const_args[i];
    }
  }
  return out;
}

int ProbePosition(const ResolvedAtom& atom,
                  const std::function<bool(VariableId)>& is_bound) {
  for (size_t i = 0; i < atom.const_args.size(); ++i) {
    if (atom.vars[i] < 0 || is_bound(atom.vars[i])) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

size_t MatchAtom(FactStore* store, const ResolvedAtom& atom, Binding* binding,
                 const std::function<bool(void)>& yield) {
  // Pick a bound column for index access, if any. This per-tuple runtime
  // decision is the interpreted path the compiled executors
  // (datalog/executor.hpp) are differentially tested against.
  int index_pos = ProbePosition(atom, [&](VariableId var) {
    return (*binding)[static_cast<size_t>(var)] != kUnbound;
  });

  const size_t num_rows = store->NumTuples(atom.predicate);
  const int arity = store->Arity(atom.predicate);

  // Candidate rows: the single-column index chain, or the whole relation.
  // Both enumerate in row-insertion order.
  uint32_t chain_row = FactStore::kNoRow;
  uint32_t probe_mask = 0;
  size_t scan_row = 0;
  if (index_pos >= 0) {
    ElementId index_value = atom.const_args[static_cast<size_t>(index_pos)];
    if (atom.vars[static_cast<size_t>(index_pos)] >= 0) {
      index_value = (*binding)[static_cast<size_t>(
          atom.vars[static_cast<size_t>(index_pos)])];
    }
    probe_mask = 1u << index_pos;
    chain_row = store->Probe(atom.predicate, probe_mask, &index_value);
  }

  size_t matches = 0;
  for (;;) {
    size_t idx;
    if (index_pos >= 0) {
      if (chain_row == FactStore::kNoRow) break;
      idx = chain_row;
      chain_row = store->NextRow(atom.predicate, probe_mask, chain_row);
    } else {
      if (scan_row >= num_rows) break;
      idx = scan_row++;
    }
    // Attempt unification, remembering which variables this row binds.
    std::vector<VariableId> newly_bound;
    bool ok = true;
    for (int i = 0; i < arity && ok; ++i) {
      ElementId value =
          store->At(atom.predicate, i, static_cast<uint32_t>(idx));
      VariableId var = atom.vars[static_cast<size_t>(i)];
      if (var < 0) {
        ok = atom.const_args[static_cast<size_t>(i)] == value;
        continue;
      }
      ElementId& slot = (*binding)[static_cast<size_t>(var)];
      if (slot == kUnbound) {
        slot = value;
        newly_bound.push_back(var);
      } else {
        ok = slot == value;
      }
    }
    bool keep_going = true;
    if (ok) {
      ++matches;
      keep_going = yield();
    }
    for (VariableId var : newly_bound) {
      (*binding)[static_cast<size_t>(var)] = kUnbound;
    }
    if (ok && !keep_going) break;
  }
  return matches;
}

}  // namespace treedl::datalog
