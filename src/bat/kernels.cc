#include "bat/kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "bat/encoding.h"
#include "common/logging.h"

namespace dcy::bat::kernels {

namespace {

/// Threads that would cooperate on a parallel kernel under `p`: p.workers,
/// or the shared executor's width when p.workers == 0.
size_t EffectiveWorkers(const exec::ExecPolicy& p) {
  return p.workers == 0 ? exec::Executor::Default().workers() : p.workers;
}

}  // namespace

MorselPlan PlanMorsels(size_t n) {
  MorselPlan plan;
  const exec::ExecPolicy policy = exec::GetExecPolicy();
  if (n < policy.min_parallel_rows || n < 2) return plan;
  const size_t workers = EffectiveWorkers(policy);
  if (workers <= 1) return plan;
  plan.parallel = true;
  plan.workers = workers;
  plan.grain = std::max<size_t>(1, policy.morsel_rows);
  plan.morsels = (n + plan.grain - 1) / plan.grain;
  return plan;
}

void ForEachMorsel(const MorselPlan& plan, size_t n,
                   const std::function<void(size_t, size_t, size_t)>& fn) {
  exec::Executor::Default().ParallelFor(
      plan.morsels, 1,
      [&](size_t mb, size_t me) {
        for (size_t m = mb; m < me; ++m) {
          const size_t begin = m * plan.grain;
          fn(m, begin, std::min(n, begin + plan.grain));
        }
      },
      plan.workers);
}

namespace {

/// Runs `body(i)` for every row in [0, n): the shared dispatch of the
/// adaptive element-wise kernels (gather, key extraction) — one tight
/// sequential loop, or the same loop per morsel on the executor.
template <typename Body>
void ForEachRow(const MorselPlan& plan, size_t n, const Body& body) {
  if (!plan.parallel) {
    for (size_t i = 0; i < n; ++i) body(i);
  } else {
    ForEachMorsel(plan, n, [&](size_t, size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) body(i);
    });
  }
}

/// Mirrors the scalar reference ValueLE (tests/support/scalar_reference.cc)
/// for the boxed fallback on exotic type mixes.
bool ValueLE(const Value& a, const Value& b) {
  if (a.type == ValType::kStr) return a.s <= b.s;
  if (a.type == ValType::kDbl || b.type == ValType::kDbl) return a.AsDouble() <= b.AsDouble();
  return a.AsInt64() <= b.AsInt64();
}

/// Branchless filter append over rows [begin, end), absolute positions:
/// writes every candidate position and bumps the cursor by the predicate,
/// then shrinks — no per-row branch misprediction, no push_back growth
/// checks.
template <typename Pred>
void CompactLoop(size_t begin, size_t end, SelVec* sel, Pred pred) {
  const size_t base = sel->size();
  sel->resize(base + (end - begin));
  uint32_t* out = sel->data() + base;
  size_t k = 0;
  for (size_t i = begin; i < end; ++i) {
    out[k] = static_cast<uint32_t>(i);
    k += pred(i) ? 1 : 0;
  }
  sel->resize(base + k);
}

template <typename T, typename K>
void RangeLoop(const T* d, size_t begin, size_t end, K lo, K hi, SelVec* sel) {
  CompactLoop(begin, end, sel, [&](size_t i) {
    const K x = static_cast<K>(d[i]);
    return lo <= x && x <= hi;
  });
}

/// Integer rows with at least one double bound: each bound compares in its
/// own domain, exactly as ValueLE does pairwise. `key(i)` yields the int64
/// view of row i (array load or dense iota).
template <typename KeyFn>
void MixedRangeLoop(size_t begin, size_t end, const Value& lo, const Value& hi,
                    SelVec* sel, KeyFn key) {
  const bool lo_dbl = lo.type == ValType::kDbl;
  const bool hi_dbl = hi.type == ValType::kDbl;
  const int64_t loi = lo.AsInt64(), hii = hi.AsInt64();
  const double lod = lo.AsDouble(), hid = hi.AsDouble();
  for (size_t i = begin; i < end; ++i) {
    const int64_t x = key(i);
    const bool ok = (lo_dbl ? lod <= static_cast<double>(x) : loi <= x) &&
                    (hi_dbl ? static_cast<double>(x) <= hid : x <= hii);
    if (ok) sel->push_back(static_cast<uint32_t>(i));
  }
}

template <typename T, typename K>
void EqLoop(const T* d, size_t begin, size_t end, K v, SelVec* sel) {
  CompactLoop(begin, end, sel, [&](size_t i) { return static_cast<K>(d[i]) == v; });
}

/// Appends the contiguous run [i_lo, i_hi] of positions in one bulk fill.
void PushRun(int64_t i_lo, int64_t i_hi, SelVec* sel) {
  const size_t base = sel->size();
  sel->resize(base + static_cast<size_t>(i_hi - i_lo + 1));
  uint32_t* out = sel->data() + base;
  for (int64_t i = i_lo; i <= i_hi; ++i) *out++ = static_cast<uint32_t>(i);
}

template <typename T>
std::vector<T> GatherVec(const T* src, const uint32_t* idx, size_t n) {
  std::vector<T> out(n);
  T* o = out.data();
  ForEachRow(PlanMorsels(n), n, [&](size_t i) { o[i] = src[idx[i]]; });
  return out;
}

}  // namespace

bool IsContiguous(const uint32_t* idx, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    if (idx[i] != idx[0] + i) return false;
  }
  return true;
}

namespace {

/// Two-pass parallel string gather: pass 1 sizes every output string and
/// prefix-sums per-morsel byte totals into base offsets; pass 2 splices
/// each string into its precomputed slot of a preallocated heap. Offsets
/// and heap ranges are disjoint across morsels, so the writes need no
/// coordination, and the produced bytes are identical to the sequential
/// heap append. Below the parallel threshold the order-carrying builder
/// append runs unchanged.
ColumnPtr GatherStr(const StrColumn& sc, const uint32_t* idx, size_t n) {
  const MorselPlan plan = PlanMorsels(n);
  if (!plan.parallel) {
    ColumnBuilder b(ValType::kStr);
    b.AppendGather(sc, idx, n);
    return b.Finish();
  }
  const uint32_t* offs = sc.offsets().data();
  // Pass 1: per-morsel payload bytes -> exclusive scan of morsel bases.
  std::vector<uint64_t> base(plan.morsels + 1, 0);
  ForEachMorsel(plan, n, [&](size_t m, size_t b, size_t e) {
    uint64_t bytes = 0;
    for (size_t i = b; i < e; ++i) bytes += offs[idx[i] + 1] - offs[idx[i]];
    base[m + 1] = bytes;
  });
  for (size_t m = 0; m < plan.morsels; ++m) base[m + 1] += base[m];
  const uint64_t total = base[plan.morsels];
  DCY_CHECK(total <= 0xFFFFFFFFull) << "string gather exceeds the 4 GiB heap limit";
  // Pass 2: parallel splice.
  std::vector<uint32_t> out_offs(n + 1);
  out_offs[0] = 0;
  std::string heap(static_cast<size_t>(total), '\0');
  char* dst = heap.empty() ? nullptr : &heap[0];
  const char* src = sc.heap().data();
  ForEachMorsel(plan, n, [&](size_t m, size_t b, size_t e) {
    uint64_t cur = base[m];
    for (size_t i = b; i < e; ++i) {
      const uint32_t lo = offs[idx[i]];
      const uint32_t len = offs[idx[i] + 1] - lo;
      if (len > 0) std::memcpy(dst + cur, src + lo, len);
      cur += len;
      out_offs[i + 1] = static_cast<uint32_t>(cur);
    }
  });
  return std::make_shared<StrColumn>(std::move(out_offs), std::move(heap));
}

}  // namespace

ColumnPtr Gather(const Column& c, const uint32_t* idx, size_t n) {
  switch (c.kind()) {
    case ColumnKind::kDense: {
      const auto& d = static_cast<const DenseOidColumn&>(c);
      if (IsContiguous(idx, n)) {
        return MakeDenseOid(d.seqbase() + (n > 0 ? idx[0] : 0), n);
      }
      std::vector<Oid> out(n);
      Oid* o = out.data();
      const Oid seq = d.seqbase();
      ForEachRow(PlanMorsels(n), n, [&](size_t i) { o[i] = seq + idx[i]; });
      return std::make_shared<OidColumn>(ValType::kOid, std::move(out));
    }
    case ColumnKind::kStr:
      return GatherStr(static_cast<const StrColumn&>(c), idx, n);
    case ColumnKind::kDict: {
      // Gather the codes (SIMD) and share the dictionary: the result stays
      // encoded, so downstream selects/groupings keep their code fast paths
      // and no string bytes move.
      const auto& dc = static_cast<const DictStrColumn&>(c);
      const uint32_t* codes = dc.codes().data();
      std::vector<uint32_t> out(n);
      const MorselPlan plan = PlanMorsels(n);
      if (!plan.parallel) {
        enc::GatherU32(codes, idx, n, out.data());
      } else {
        uint32_t* o = out.data();
        ForEachMorsel(plan, n, [&](size_t, size_t b, size_t e) {
          enc::GatherU32(codes, idx + b, e - b, o + b);
        });
      }
      return std::make_shared<DictStrColumn>(dc.dict(), std::move(out));
    }
    case ColumnKind::kFixed:
      switch (c.type()) {
        case ValType::kOid:
          return std::make_shared<OidColumn>(
              ValType::kOid, GatherVec(static_cast<const Oid*>(c.RawData()), idx, n));
        case ValType::kInt:
        case ValType::kDate:
          return std::make_shared<IntColumn>(
              c.type(), GatherVec(static_cast<const int32_t*>(c.RawData()), idx, n));
        case ValType::kLng:
          return std::make_shared<LngColumn>(
              ValType::kLng, GatherVec(static_cast<const int64_t*>(c.RawData()), idx, n));
        case ValType::kDbl:
          return std::make_shared<DblColumn>(
              ValType::kDbl, GatherVec(static_cast<const double*>(c.RawData()), idx, n));
        case ValType::kStr: break;  // unreachable: kStr kind handled above
      }
      break;
  }
  DCY_FATAL() << "Gather: bad column layout";
  return nullptr;
}

namespace {

/// Clamps an int64 range predicate to the int32 domain — the semantics the
/// scalar loop gets from widening each element before comparing. Returns
/// false when no int32 value can satisfy the predicate.
bool ClampToI32(int64_t lo, int64_t hi, int32_t* lo32, int32_t* hi32) {
  constexpr int64_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int32_t>::max();
  if (lo > hi || lo > kMax || hi < kMin) return false;
  *lo32 = static_cast<int32_t>(std::max(lo, kMin));
  *hi32 = static_cast<int32_t>(std::min(hi, kMax));
  return true;
}

/// Filters rows [begin, end) only, appending absolute positions — the
/// morsel building block of the adaptive selects below.
/// SelectRange(c, ...) == SelectRangeSpan(c, 0, c.size(), ...).
size_t SelectRangeSpan(const Column& c, size_t begin, size_t end, const Value& lo,
                       const Value& hi, SelVec* sel) {
  const size_t before = sel->size();
  if (c.type() == ValType::kStr) {
    if (lo.type == ValType::kStr && hi.type == ValType::kStr) {
      if (c.kind() == ColumnKind::kDict) {
        // Sorted dictionary: the string range maps to a code range, so the
        // scan never touches the heap — two binary searches plus a SIMD
        // integer range select over the codes.
        const auto& dc = static_cast<const DictStrColumn&>(c);
        const uint32_t lo_code = dc.LowerBoundCode(lo.s);
        const uint32_t hi_code = dc.UpperBoundCode(hi.s);  // exclusive
        if (lo_code < hi_code) {
          enc::SelectRangeU32(dc.codes().data(), begin, end, lo_code,
                              hi_code - 1, sel);
        }
      } else {
        const auto& sc = static_cast<const StrColumn&>(c);
        const std::string_view lov = lo.s, hiv = hi.s;
        for (size_t i = begin; i < end; ++i) {
          const std::string_view v = sc.GetString(i);
          if (lov <= v && v <= hiv) sel->push_back(static_cast<uint32_t>(i));
        }
      }
    } else {
      // Exotic mix; keep the boxed semantics bit-for-bit.
      for (size_t i = begin; i < end; ++i) {
        const Value x = c.GetValue(i);
        if (ValueLE(lo, x) && ValueLE(x, hi)) sel->push_back(static_cast<uint32_t>(i));
      }
    }
    return sel->size() - before;
  }
  if (c.type() == ValType::kDbl) {
    enc::SelectRangeF64(static_cast<const double*>(c.RawData()), begin, end,
                        lo.AsDouble(), hi.AsDouble(), sel);
    return sel->size() - before;
  }
  const bool any_dbl_bound = lo.type == ValType::kDbl || hi.type == ValType::kDbl;
  if (c.kind() == ColumnKind::kDense) {
    const int64_t seq = static_cast<int64_t>(static_cast<const DenseOidColumn&>(c).seqbase());
    if (!any_dbl_bound) {
      // Dense fast path: the qualifying rows are one contiguous run,
      // clamped to this span.
      const int64_t i_lo = std::max<int64_t>(
          static_cast<int64_t>(begin), lo.AsInt64() <= seq ? 0 : lo.AsInt64() - seq);
      const int64_t i_hi =
          std::min<int64_t>(static_cast<int64_t>(end) - 1, hi.AsInt64() - seq);
      if (i_lo <= i_hi) PushRun(i_lo, i_hi, sel);
    } else {
      MixedRangeLoop(begin, end, lo, hi, sel,
                     [seq](size_t i) { return seq + static_cast<int64_t>(i); });
    }
    return sel->size() - before;
  }
  switch (c.type()) {
    case ValType::kOid: {
      const auto* d = static_cast<const Oid*>(c.RawData());
      if (any_dbl_bound) {
        MixedRangeLoop(begin, end, lo, hi, sel,
                       [d](size_t i) { return static_cast<int64_t>(d[i]); });
      } else {
        // Same bit pattern and the same signed compare RangeLoop's
        // static_cast<int64_t> would do.
        enc::SelectRangeI64(reinterpret_cast<const int64_t*>(d), begin, end,
                            lo.AsInt64(), hi.AsInt64(), sel);
      }
      break;
    }
    case ValType::kInt:
    case ValType::kDate: {
      const auto* d = static_cast<const int32_t*>(c.RawData());
      if (any_dbl_bound) {
        MixedRangeLoop(begin, end, lo, hi, sel,
                       [d](size_t i) { return static_cast<int64_t>(d[i]); });
      } else {
        int32_t lo32 = 0, hi32 = 0;
        if (ClampToI32(lo.AsInt64(), hi.AsInt64(), &lo32, &hi32)) {
          enc::SelectRangeI32(d, begin, end, lo32, hi32, sel);
        }
      }
      break;
    }
    case ValType::kLng: {
      const auto* d = static_cast<const int64_t*>(c.RawData());
      if (any_dbl_bound) {
        MixedRangeLoop(begin, end, lo, hi, sel, [d](size_t i) { return d[i]; });
      } else {
        enc::SelectRangeI64(d, begin, end, lo.AsInt64(), hi.AsInt64(), sel);
      }
      break;
    }
    default: DCY_FATAL() << "SelectRange: bad dispatch";
  }
  return sel->size() - before;
}

size_t SelectEqSpan(const Column& c, size_t begin, size_t end, const Value& v,
                    SelVec* sel) {
  const size_t before = sel->size();
  if (c.type() == ValType::kStr) {
    if (c.kind() == ColumnKind::kDict) {
      // One binary search resolves the key to a code (or proves it absent);
      // the heap is never touched during the scan.
      const auto& dc = static_cast<const DictStrColumn&>(c);
      const uint32_t code = dc.FindCode(v.s);
      if (code != DictStrColumn::kNoCode) {
        enc::SelectEqU32(dc.codes().data(), begin, end, code, sel);
      }
    } else {
      const auto& sc = static_cast<const StrColumn&>(c);
      const std::string_view key = v.s;
      for (size_t i = begin; i < end; ++i) {
        if (sc.GetString(i) == key) sel->push_back(static_cast<uint32_t>(i));
      }
    }
    return sel->size() - before;
  }
  const bool dbl_domain = c.type() == ValType::kDbl || v.type == ValType::kDbl;
  if (c.kind() == ColumnKind::kDense) {
    const int64_t seq = static_cast<int64_t>(static_cast<const DenseOidColumn&>(c).seqbase());
    if (dbl_domain) {
      const double key = v.AsDouble();
      for (size_t i = begin; i < end; ++i) {
        if (static_cast<double>(seq + static_cast<int64_t>(i)) == key) {
          sel->push_back(static_cast<uint32_t>(i));
        }
      }
    } else {
      const int64_t key = v.AsInt64();
      if (key >= seq + static_cast<int64_t>(begin) &&
          key < seq + static_cast<int64_t>(end)) {
        sel->push_back(static_cast<uint32_t>(key - seq));
      }
    }
    return sel->size() - before;
  }
  switch (c.type()) {
    case ValType::kOid:
      if (dbl_domain) {
        EqLoop(static_cast<const Oid*>(c.RawData()), begin, end, v.AsDouble(), sel);
      } else {
        // Same bit pattern and the same signed compare EqLoop's
        // static_cast<int64_t> would do.
        enc::SelectEqI64(reinterpret_cast<const int64_t*>(c.RawData()), begin,
                         end, v.AsInt64(), sel);
      }
      break;
    case ValType::kInt:
    case ValType::kDate:
      if (dbl_domain) {
        EqLoop(static_cast<const int32_t*>(c.RawData()), begin, end, v.AsDouble(), sel);
      } else {
        int32_t k32 = 0, k32hi = 0;
        const int64_t key = v.AsInt64();
        if (ClampToI32(key, key, &k32, &k32hi)) {
          enc::SelectEqI32(static_cast<const int32_t*>(c.RawData()), begin, end,
                           k32, sel);
        }
      }
      break;
    case ValType::kLng:
      if (dbl_domain) {
        EqLoop(static_cast<const int64_t*>(c.RawData()), begin, end, v.AsDouble(), sel);
      } else {
        enc::SelectEqI64(static_cast<const int64_t*>(c.RawData()), begin, end,
                         v.AsInt64(), sel);
      }
      break;
    case ValType::kDbl:
      enc::SelectEqF64(static_cast<const double*>(c.RawData()), begin, end,
                       v.AsDouble(), sel);
      break;
    default: DCY_FATAL() << "SelectEq: bad dispatch";
  }
  return sel->size() - before;
}

}  // namespace

size_t StitchSelVecs(const std::vector<SelVec>& parts, SelVec* sel) {
  size_t total = 0;
  for (const SelVec& p : parts) total += p.size();
  if (total == 0) return 0;
  const size_t base = sel->size();
  sel->resize(base + total);
  std::vector<size_t> offsets(parts.size());
  size_t off = base;
  for (size_t i = 0; i < parts.size(); ++i) {
    offsets[i] = off;
    off += parts[i].size();
  }
  auto copy_part = [&](size_t i) {
    if (!parts[i].empty()) {
      std::memcpy(sel->data() + offsets[i], parts[i].data(),
                  parts[i].size() * sizeof(uint32_t));
    }
  };
  const MorselPlan plan = PlanMorsels(total);
  if (!plan.parallel) {
    for (size_t i = 0; i < parts.size(); ++i) copy_part(i);
  } else {
    exec::Executor::Default().ParallelFor(
        parts.size(), 1,
        [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) copy_part(i);
        },
        plan.workers);
  }
  return total;
}

size_t SelectRange(const Column& c, const Value& lo, const Value& hi, SelVec* sel) {
  const size_t n = c.size();
  // Dense ranges resolve in O(matched run); never worth fanning out.
  const MorselPlan plan =
      c.kind() == ColumnKind::kDense ? MorselPlan{} : PlanMorsels(n);
  if (!plan.parallel) return SelectRangeSpan(c, 0, n, lo, hi, sel);
  std::vector<SelVec> parts(plan.morsels);
  ForEachMorsel(plan, n, [&](size_t m, size_t b, size_t e) {
    SelectRangeSpan(c, b, e, lo, hi, &parts[m]);
  });
  return StitchSelVecs(parts, sel);
}

size_t SelectEq(const Column& c, const Value& v, SelVec* sel) {
  const size_t n = c.size();
  const MorselPlan plan =
      c.kind() == ColumnKind::kDense ? MorselPlan{} : PlanMorsels(n);
  if (!plan.parallel) return SelectEqSpan(c, 0, n, v, sel);
  std::vector<SelVec> parts(plan.morsels);
  ForEachMorsel(plan, n, [&](size_t m, size_t b, size_t e) {
    SelectEqSpan(c, b, e, v, &parts[m]);
  });
  return StitchSelVecs(parts, sel);
}

void ExtractInt64Keys(const Column& c, std::vector<int64_t>* keys) {
  const size_t n = c.size();
  keys->resize(n);
  if (n == 0 && c.type() != ValType::kStr) return;
  int64_t* out = keys->data();
  const MorselPlan plan = PlanMorsels(n);
  switch (c.kind()) {
    case ColumnKind::kDense: {
      const int64_t seq =
          static_cast<int64_t>(static_cast<const DenseOidColumn&>(c).seqbase());
      ForEachRow(plan, n, [&](size_t i) { out[i] = seq + static_cast<int64_t>(i); });
      return;
    }
    case ColumnKind::kFixed:
      switch (c.type()) {
        case ValType::kOid:
        case ValType::kLng:
        case ValType::kDbl:
          // Same 8-byte width: oid/lng verbatim, dbl by bit pattern (the
          // hash-equality form the scalar reference join uses). A single
          // memcpy is already memory-bound; no fan-out.
          std::memcpy(out, c.RawData(), n * sizeof(int64_t));
          return;
        case ValType::kInt:
        case ValType::kDate: {
          const auto* d = static_cast<const int32_t*>(c.RawData());
          ForEachRow(plan, n, [&](size_t i) { out[i] = d[i]; });
          return;
        }
        case ValType::kStr: break;
      }
      break;
    case ColumnKind::kStr:
    case ColumnKind::kDict: break;
  }
  DCY_FATAL() << "ExtractInt64Keys on " << ValTypeName(c.type()) << " column";
}

void ExtractDoubleKeys(const Column& c, std::vector<double>* keys) {
  const size_t n = c.size();
  keys->resize(n);
  if (n == 0 && c.type() != ValType::kStr) return;
  double* out = keys->data();
  const MorselPlan plan = PlanMorsels(n);
  auto fill = [&](auto convert) {
    ForEachRow(plan, n, [&](size_t i) { out[i] = convert(i); });
  };
  switch (c.kind()) {
    case ColumnKind::kDense: {
      const auto& d = static_cast<const DenseOidColumn&>(c);
      const Oid seq = d.seqbase();
      fill([seq](size_t i) { return static_cast<double>(seq + i); });
      return;
    }
    case ColumnKind::kFixed:
      switch (c.type()) {
        case ValType::kDbl:
          std::memcpy(out, c.RawData(), n * sizeof(double));
          return;
        case ValType::kOid: {
          const auto* d = static_cast<const Oid*>(c.RawData());
          fill([d](size_t i) { return static_cast<double>(d[i]); });
          return;
        }
        case ValType::kInt:
        case ValType::kDate: {
          const auto* d = static_cast<const int32_t*>(c.RawData());
          fill([d](size_t i) { return static_cast<double>(d[i]); });
          return;
        }
        case ValType::kLng: {
          const auto* d = static_cast<const int64_t*>(c.RawData());
          fill([d](size_t i) { return static_cast<double>(d[i]); });
          return;
        }
        case ValType::kStr: break;
      }
      break;
    case ColumnKind::kStr:
    case ColumnKind::kDict: break;
  }
  DCY_FATAL() << "ExtractDoubleKeys on " << ValTypeName(c.type()) << " column";
}

Span<int64_t> Int64KeySpan(const Column& c, std::vector<int64_t>* scratch) {
  if (c.kind() == ColumnKind::kFixed &&
      (c.type() == ValType::kOid || c.type() == ValType::kLng)) {
    // lng verbatim; oid reinterpreted as its signed twin (same bit pattern
    // ExtractInt64Keys copies, and signed/unsigned views may alias).
    return {static_cast<const int64_t*>(c.RawData()), c.size()};
  }
  ExtractInt64Keys(c, scratch);
  return {scratch->data(), scratch->size()};
}

FlatTable::FlatTable(const int64_t* keys, size_t n) {
  next_.assign(n, kNone);

  if (n > 0) {
    int64_t min = keys[0], max = keys[0];
    for (size_t j = 1; j < n; ++j) {
      min = std::min(min, keys[j]);
      max = std::max(max, keys[j]);
    }
    // Direct addressing when the span costs at most ~4 slots per row (plus
    // slack for tiny builds): the FK-join common case of a compact domain.
    const uint64_t span = static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
    if (span < 4 * static_cast<uint64_t>(n) + 1024) {
      direct_ = true;
      min_ = min;
      bucket_rows_.assign(span + 1, kNone);
      for (size_t j = n; j-- > 0;) {
        const uint64_t off = static_cast<uint64_t>(keys[j]) - static_cast<uint64_t>(min);
        uint32_t& head = bucket_rows_[off];
        next_[j] = head;  // kNone for the first insert
        head = static_cast<uint32_t>(j);
      }
      return;
    }
  }

  direct_ = false;
  size_t cap = 8;
  while (cap < n * 2) cap <<= 1;  // <= 50% load factor
  mask_ = cap - 1;
  bucket_rows_.assign(cap, kNone);
  bucket_keys_.resize(cap);
  // Insert in reverse row order at the chain head so probes walk ascending
  // rows — bit-identical output order to the scalar reference.
  for (size_t j = n; j-- > 0;) {
    const int64_t key = keys[j];
    uint64_t slot = Hash(key) & mask_;
    while (true) {
      uint32_t& head = bucket_rows_[slot];
      if (head == kNone) {
        head = static_cast<uint32_t>(j);
        bucket_keys_[slot] = key;
        break;
      }
      if (bucket_keys_[slot] == key) {
        next_[j] = head;
        head = static_cast<uint32_t>(j);
        break;
      }
      slot = (slot + 1) & mask_;
    }
  }
}

namespace {

/// Effective radix-partition count for a parallel build of n keys:
/// explicit ExecPolicy::join_partitions, or 4 per worker so stealing has
/// slack; rounded down to a power of two and kept coarse (a partition
/// spans at least a quarter-morsel of rows) so tiny partitions never pay
/// more scatter than they save.
size_t EffectivePartitions(size_t n) {
  const exec::ExecPolicy policy = exec::GetExecPolicy();
  size_t want = policy.join_partitions;
  if (want == 0) want = 4 * EffectiveWorkers(policy);
  const size_t coarse =
      std::max<size_t>(1, n / std::max<size_t>(1, policy.morsel_rows / 4));
  want = std::min(std::min(want, coarse), size_t{256});
  size_t p = 1;
  while (p * 2 <= want) p <<= 1;
  return p;
}

}  // namespace

PartitionedTable::PartitionedTable(const int64_t* keys, size_t n) {
  const MorselPlan plan = PlanMorsels(n);
  const size_t nparts = plan.parallel ? EffectivePartitions(n) : 1;
  if (nparts <= 1) {
    parts_.resize(1);
    parts_[0].table = FlatTable(keys, n);
    return;
  }
  unsigned log2p = 0;
  while ((size_t{1} << log2p) < nparts) ++log2p;
  shift_ = 64 - log2p;
  parts_.resize(nparts);

  // Pass 1 (parallel): per-morsel partition histograms.
  std::vector<std::vector<uint32_t>> cursors(plan.morsels);
  ForEachMorsel(plan, n, [&](size_t m, size_t b, size_t e) {
    auto& c = cursors[m];
    c.assign(nparts, 0);
    for (size_t i = b; i < e; ++i) ++c[PartitionOf(keys[i])];
  });

  // Exclusive scans turn the histograms into scatter cursors: morsel m's
  // rows of partition p land at [cursors[m][p], ...) of that partition, so
  // partition-local row order is ascending original row order.
  std::vector<std::vector<int64_t>> part_keys(nparts);
  for (size_t p = 0; p < nparts; ++p) {
    uint32_t total = 0;
    for (size_t m = 0; m < plan.morsels; ++m) {
      const uint32_t count = cursors[m][p];
      cursors[m][p] = total;
      total += count;
    }
    part_keys[p].resize(total);
    parts_[p].rows.resize(total);
  }

  // Pass 2 (parallel): scatter (key, row) pairs into their partitions.
  ForEachMorsel(plan, n, [&](size_t m, size_t b, size_t e) {
    auto& cur = cursors[m];
    for (size_t i = b; i < e; ++i) {
      const size_t p = PartitionOf(keys[i]);
      const uint32_t at = cur[p]++;
      part_keys[p][at] = keys[i];
      parts_[p].rows[at] = static_cast<uint32_t>(i);
    }
  });

  // Pass 3 (parallel over partitions): local FlatTable builds, then splice
  // each partition's duplicate chains into the global next_ array. Row sets
  // are disjoint across partitions, so the writes need no coordination, and
  // ascending local chains map to ascending original rows.
  next_.resize(n);
  exec::Executor::Default().ParallelFor(
      nparts, 1,
      [&](size_t begin, size_t end) {
        for (size_t p = begin; p < end; ++p) {
          Part& part = parts_[p];
          part.table = FlatTable(part_keys[p].data(), part_keys[p].size());
          part_keys[p] = {};  // the table borrows keys only during the build
          const std::vector<uint32_t>& rows = part.rows;
          for (size_t j = 0; j < rows.size(); ++j) {
            const uint32_t local_next = part.table.Next(static_cast<uint32_t>(j));
            next_[rows[j]] =
                local_next == kNone ? kNone : rows[local_next];
          }
        }
      },
      plan.workers);
}

}  // namespace dcy::bat::kernels
