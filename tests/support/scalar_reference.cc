#include "tests/support/scalar_reference.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace dcy::bat::scalar {

namespace {

bool IsIntegerFamily(ValType t) {
  return t == ValType::kOid || t == ValType::kInt || t == ValType::kLng ||
         t == ValType::kDate;
}

Status CheckJoinable(ValType a, ValType b) {
  if (IsIntegerFamily(a) && IsIntegerFamily(b)) return Status::OK();
  if (a == b) return Status::OK();
  return Status::InvalidArgument(std::string("join type mismatch: ") + ValTypeName(a) +
                                 " vs " + ValTypeName(b));
}

Bat::Properties HeadOrderedProps(const Bat& l) {
  Bat::Properties p;
  p.hsorted = l.props().hsorted;
  return p;
}

/// Emits [l.head[i], r.tail[j]] pairs for matches of l.tail[i] == r.head[j],
/// probing l in order (stable on l).
template <typename Key, typename LKey, typename RKey>
BatPtr HashJoinImpl(const Bat& l, const Bat& r, LKey lkey, RKey rkey) {
  std::unordered_map<Key, std::vector<size_t>> build;
  build.reserve(r.size());
  for (size_t j = 0; j < r.size(); ++j) build[rkey(j)].push_back(j);

  ColumnBuilder head_out(l.head_type());
  ColumnBuilder tail_out(r.tail_type());
  for (size_t i = 0; i < l.size(); ++i) {
    auto it = build.find(lkey(i));
    if (it == build.end()) continue;
    for (size_t j : it->second) {
      head_out.AppendValue(l.head()->GetValue(i));
      tail_out.AppendValue(r.tail()->GetValue(j));
    }
  }
  return BatPtr(std::make_shared<Bat>(head_out.Finish(), tail_out.Finish(), HeadOrderedProps(l)));
}

BatPtr MergeJoinImpl(const Bat& l, const Bat& r) {
  ColumnBuilder head_out(l.head_type());
  ColumnBuilder tail_out(r.tail_type());
  size_t i = 0, j = 0;
  while (i < l.size() && j < r.size()) {
    const int cmp = CompareRows(*l.tail(), i, *r.head(), j);
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      size_t j_end = j;
      while (j_end < r.size() && CompareRows(*l.tail(), i, *r.head(), j_end) == 0) ++j_end;
      size_t i_end = i;
      while (i_end < l.size() && CompareRows(*l.tail(), i_end, *r.head(), j) == 0) ++i_end;
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          head_out.AppendValue(l.head()->GetValue(a));
          tail_out.AppendValue(r.tail()->GetValue(b));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return BatPtr(std::make_shared<Bat>(head_out.Finish(), tail_out.Finish(), HeadOrderedProps(l)));
}

/// Set of the head values of r, for semijoin/kdiff/kunion. Integer members
/// use GetInt64 (doubles truncate), mirroring the engine's membership
/// semantics.
struct HeadSet {
  std::unordered_set<int64_t> ints;
  std::unordered_set<std::string_view> strs;
  bool is_str = false;

  explicit HeadSet(const Bat& r) {
    is_str = r.head_type() == ValType::kStr;
    for (size_t j = 0; j < r.size(); ++j) {
      if (is_str) {
        strs.insert(r.head()->GetString(j));
      } else {
        ints.insert(r.head()->GetInt64(j));
      }
    }
  }

  bool Contains(const Column& head, size_t i) const {
    if (is_str) return strs.count(head.GetString(i)) > 0;
    return ints.count(head.GetInt64(i)) > 0;
  }
};

BatPtr FilterByPositions(const Bat& b, const std::vector<size_t>& keep) {
  ColumnBuilder head_out(b.head_type());
  ColumnBuilder tail_out(b.tail_type());
  for (size_t i : keep) {
    head_out.AppendValue(b.head()->GetValue(i));
    tail_out.AppendValue(b.tail()->GetValue(i));
  }
  Bat::Properties p;
  p.hsorted = b.props().hsorted;  // positional filters keep order
  p.tsorted = b.props().tsorted;
  p.hkey = b.props().hkey;
  p.tkey = b.props().tkey;
  return BatPtr(std::make_shared<Bat>(head_out.Finish(), tail_out.Finish(), p));
}

bool ValueLE(const Value& a, const Value& b) {
  if (a.type == ValType::kStr) return a.s <= b.s;
  if (a.type == ValType::kDbl || b.type == ValType::kDbl) return a.AsDouble() <= b.AsDouble();
  return a.AsInt64() <= b.AsInt64();
}

bool ValueEQ(const Column& c, size_t i, const Value& v) {
  if (c.type() == ValType::kStr) return c.GetString(i) == v.s;
  if (c.type() == ValType::kDbl || v.type == ValType::kDbl) {
    return c.GetDouble(i) == v.AsDouble();
  }
  return c.GetInt64(i) == v.AsInt64();
}

}  // namespace

Result<BatPtr> Select(const BatPtr& b, const Value& v) {
  std::vector<size_t> keep;
  for (size_t i = 0; i < b->size(); ++i) {
    if (ValueEQ(*b->tail(), i, v)) keep.push_back(i);
  }
  return FilterByPositions(*b, keep);
}

Result<BatPtr> SelectRange(const BatPtr& b, const Value& lo, const Value& hi) {
  std::vector<size_t> keep;
  for (size_t i = 0; i < b->size(); ++i) {
    const Value x = b->tail()->GetValue(i);
    if (ValueLE(lo, x) && ValueLE(x, hi)) keep.push_back(i);
  }
  return FilterByPositions(*b, keep);
}

Result<BatPtr> Join(const BatPtr& l, const BatPtr& r) {
  DCY_RETURN_NOT_OK(CheckJoinable(l->tail_type(), r->head_type()));
  if (l->props().tsorted && r->props().hsorted) {
    return MergeJoinImpl(*l, *r);
  }
  if (l->tail_type() == ValType::kStr) {
    return HashJoinImpl<std::string>(
        *l, *r, [&](size_t i) { return std::string(l->tail()->GetString(i)); },
        [&](size_t j) { return std::string(r->head()->GetString(j)); });
  }
  if (l->tail_type() == ValType::kDbl) {
    return HashJoinImpl<int64_t>(
        *l, *r,
        [&](size_t i) {
          double d = l->tail()->GetDouble(i);
          int64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          return bits;
        },
        [&](size_t j) {
          double d = r->head()->GetDouble(j);
          int64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          return bits;
        });
  }
  return HashJoinImpl<int64_t>(
      *l, *r, [&](size_t i) { return l->tail()->GetInt64(i); },
      [&](size_t j) { return r->head()->GetInt64(j); });
}

Result<BatPtr> SemiJoin(const BatPtr& l, const BatPtr& r) {
  DCY_RETURN_NOT_OK(CheckJoinable(l->head_type(), r->head_type()));
  HeadSet set(*r);
  std::vector<size_t> keep;
  for (size_t i = 0; i < l->size(); ++i) {
    if (set.Contains(*l->head(), i)) keep.push_back(i);
  }
  return FilterByPositions(*l, keep);
}

Result<BatPtr> KDiff(const BatPtr& l, const BatPtr& r) {
  DCY_RETURN_NOT_OK(CheckJoinable(l->head_type(), r->head_type()));
  HeadSet set(*r);
  std::vector<size_t> keep;
  for (size_t i = 0; i < l->size(); ++i) {
    if (!set.Contains(*l->head(), i)) keep.push_back(i);
  }
  return FilterByPositions(*l, keep);
}

Result<BatPtr> KUnion(const BatPtr& l, const BatPtr& r) {
  DCY_RETURN_NOT_OK(CheckJoinable(l->head_type(), r->head_type()));
  if (l->tail_type() != r->tail_type()) {
    return Status::InvalidArgument("kunion tail type mismatch");
  }
  HeadSet set(*l);
  ColumnBuilder head_out(l->head_type());
  ColumnBuilder tail_out(l->tail_type());
  for (size_t i = 0; i < l->size(); ++i) {
    head_out.AppendValue(l->head()->GetValue(i));
    tail_out.AppendValue(l->tail()->GetValue(i));
  }
  for (size_t j = 0; j < r->size(); ++j) {
    if (!set.Contains(*r->head(), j)) {
      head_out.AppendValue(r->head()->GetValue(j));
      tail_out.AppendValue(r->tail()->GetValue(j));
    }
  }
  return BatPtr(std::make_shared<Bat>(head_out.Finish(), tail_out.Finish(), Bat::Properties{}));
}

Result<BatPtr> Sort(const BatPtr& b) {
  std::vector<size_t> idx(b->size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t c) {
    return CompareRows(*b->tail(), a, *b->tail(), c) < 0;
  });
  BatPtr out = FilterByPositions(*b, idx);
  Bat::Properties p = out->props();
  p.tsorted = true;
  p.hsorted = false;
  return BatPtr(std::make_shared<Bat>(out->head(), out->tail(), p));
}

Result<BatPtr> TopN(const BatPtr& b, size_t n, bool descending) {
  std::vector<size_t> idx(b->size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t c) {
    const int cmp = CompareRows(*b->tail(), a, *b->tail(), c);
    return descending ? cmp > 0 : cmp < 0;
  });
  idx.resize(std::min(n, idx.size()));
  BatPtr out = FilterByPositions(*b, idx);
  Bat::Properties p = out->props();
  p.hsorted = false;
  p.tsorted = !descending;
  return BatPtr(std::make_shared<Bat>(out->head(), out->tail(), p));
}

}  // namespace dcy::bat::scalar
