#include "bat/serialize.h"

#include <cstring>

#include "common/logging.h"

namespace dcy::bat {

namespace {

constexpr uint32_t kMagic = 0xDC10B47u;  // "DC1.0 BAT"
// Version 1 (no per-column codec byte) is retired; its frames are rejected.
constexpr uint16_t kVersion = 2;

enum class HeadKind : uint8_t { kDense = 0, kMaterialized = 1 };

/// Per-column encoding byte: low nibble = codec, high bits carry the
/// sender's memoized sortedness so the receiver's cache starts warm.
enum class WireCodec : uint8_t { kPlain = 0, kDict = 1, kFor = 2 };
constexpr uint8_t kEncCodecMask = 0x0F;
constexpr uint8_t kEncSortedKnown = 0x10;
constexpr uint8_t kEncSorted = 0x20;
constexpr uint8_t kEncKnownBits = 0x3F;

constexpr size_t kPreludeBytes = 4 + 2 + 1 + 1;  // magic, version, props, head kind
constexpr size_t kCrcBytes = 4;

/// \brief Append writer over a buffer whose exact final size is reserved up
/// front: every byte is written exactly once (no value-initializing resize
/// pass over the frame, and the reserved capacity rules out reallocation).
class Cursor {
 public:
  Cursor(std::string* buf, size_t total) : buf_(buf) {
    buf_->clear();
    buf_->reserve(total);
  }

  void PutBytes(const void* p, size_t n) { buf_->append(static_cast<const char*>(p), n); }

  template <typename T>
  void Put(T v) {
    PutBytes(&v, sizeof(v));
  }

  /// Extends by n bytes in place and returns the write pointer (for bulk
  /// loops that fill the region directly).
  char* Skip(size_t n) {
    const size_t pos = buf_->size();
    buf_->resize(pos + n);
    return buf_->data() + pos;
  }

  size_t pos() const { return buf_->size(); }

 private:
  std::string* buf_;
};

template <typename T>
Status Get(std::string_view in, size_t* pos, T* v) {
  if (*pos + sizeof(T) > in.size()) return Status::Corruption("truncated BAT buffer");
  std::memcpy(v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return Status::OK();
}

/// Plain string body size ([num_offsets][offsets][heap_size][heap]); a
/// dictionary column re-materializes its per-row strings here (only frames
/// with compression off and the all-plain raw_bytes accounting pay this).
size_t PlainStrBodySize(const Column& c) {
  if (c.kind() == ColumnKind::kStr) {
    const auto& sc = static_cast<const StrColumn&>(c);
    return 8 + sc.offsets().size() * sizeof(uint32_t) + 8 + sc.heap().size();
  }
  DCY_DCHECK(c.kind() == ColumnKind::kDict);
  const auto& dc = static_cast<const DictStrColumn&>(c);
  const auto& doffs = dc.dict()->offsets();
  uint64_t heap = 0;
  for (const uint32_t code : dc.codes()) heap += doffs[code + 1] - doffs[code];
  return 8 + (c.size() + 1) * sizeof(uint32_t) + 8 + heap;
}

void PutPlainStrBody(Cursor* out, const Column& c) {
  if (c.kind() == ColumnKind::kStr) {
    const auto& sc = static_cast<const StrColumn&>(c);
    out->Put<uint64_t>(sc.offsets().size());
    out->PutBytes(sc.offsets().data(), sc.offsets().size() * sizeof(uint32_t));
    out->Put<uint64_t>(sc.heap().size());
    out->PutBytes(sc.heap().data(), sc.heap().size());
    return;
  }
  DCY_DCHECK(c.kind() == ColumnKind::kDict);
  const auto& dc = static_cast<const DictStrColumn&>(c);
  const uint32_t* codes = dc.codes().data();
  const auto& doffs = dc.dict()->offsets();
  const char* dheap = dc.dict()->heap().data();
  const size_t n = c.size();
  out->Put<uint64_t>(n + 1);
  char* off_dst = out->Skip((n + 1) * sizeof(uint32_t));
  uint64_t heap_size = 0;
  for (size_t i = 0; i < n; ++i) heap_size += doffs[codes[i] + 1] - doffs[codes[i]];
  out->Put<uint64_t>(heap_size);
  char* heap_dst = out->Skip(heap_size);
  uint32_t off = 0;
  std::memcpy(off_dst, &off, sizeof(off));
  for (size_t i = 0; i < n; ++i) {
    const uint32_t lo = doffs[codes[i]], len = doffs[codes[i] + 1] - lo;
    std::memcpy(heap_dst + off, dheap + lo, len);
    off += len;
    std::memcpy(off_dst + (i + 1) * sizeof(off), &off, sizeof(off));
  }
}

/// Plain (codec-free) body size of one column.
size_t PlainBodySize(const Column& c) {
  if (c.type() == ValType::kStr) return PlainStrBodySize(c);
  return c.size() * ValTypeWidth(c.type());
}

void PutPlainFixedBody(Cursor* out, const Column& c) {
  const size_t payload = c.size() * ValTypeWidth(c.type());
  if (payload == 0) return;
  if (c.kind() == ColumnKind::kFixed) {
    // Materialized fixed width: the whole payload in one memcpy.
    out->PutBytes(c.RawData(), payload);
    return;
  }
  // Dense oid range (no backing array): stream the iota straight into the
  // frame. Dense *heads* never reach here (encoded as seqbase+count); this
  // covers dense tails such as uselect/mark results.
  DCY_DCHECK(c.kind() == ColumnKind::kDense);
  const Oid seq = static_cast<const DenseOidColumn&>(c).seqbase();
  char* dst = out->Skip(payload);
  for (size_t i = 0; i < c.size(); ++i) {
    const uint64_t v = seq + i;  // memcpy: the frame offset is unaligned
    std::memcpy(dst + i * sizeof(v), &v, sizeof(v));
  }
}

/// One column's codec decision plus everything needed to emit its body.
struct ColPlan {
  const Column* col = nullptr;
  WireCodec codec = WireCodec::kPlain;
  uint8_t enc_byte = 0;
  size_t body_size = 0;               ///< bytes after [type][enc][count]
  unsigned code_bits = 0;             ///< dict codec
  std::optional<enc::DictPlan> dict;  ///< owned when planned from a plain StrColumn
  enc::ForPlan forp{};
};

uint8_t SortednessBits(const Column& c) {
  if (!c.SortednessKnown()) return 0;
  return kEncSortedKnown | (c.IsSorted() ? kEncSorted : 0);
}

/// Plans one column; with `compress` off every column ships plain (an
/// in-memory dictionary column is materialized).
ColPlan PlanColumn(const Column& c, bool compress) {
  ColPlan p;
  p.col = &c;
  if (!compress) {
    p.body_size = PlainBodySize(c);
  } else if (c.type() == ValType::kStr) {
    if (c.kind() == ColumnKind::kDict) {
      // Already dictionary-encoded in memory (decoded off the ring): reuse
      // its dictionary and codes verbatim, no analysis.
      const auto& dc = static_cast<const DictStrColumn&>(c);
      const size_t d = dc.dict_size();
      p.codec = WireCodec::kDict;
      p.code_bits = d <= 1 ? 0 : enc::BitWidth(d - 1);
      p.body_size = 4 + (d + 1) * sizeof(uint32_t) + 8 + dc.dict()->heap().size() +
                    1 + enc::PackedBytes(c.size(), p.code_bits);
    } else if (auto dp = enc::PlanDict(static_cast<const StrColumn&>(c))) {
      p.codec = WireCodec::kDict;
      p.code_bits = dp->code_bits;
      p.body_size = 4 + dp->offsets.size() * sizeof(uint32_t) + 8 + dp->heap.size() +
                    1 + enc::PackedBytes(c.size(), dp->code_bits);
      p.dict = std::move(dp);
    } else {
      p.body_size = PlainStrBodySize(c);
    }
  } else if (auto fp = enc::PlanFor(c)) {
    p.codec = WireCodec::kFor;
    p.forp = *fp;
    p.body_size = 8 + 1 + enc::PackedBytes(c.size(), fp->bits);
  } else {
    p.body_size = PlainBodySize(c);
  }
  p.enc_byte = static_cast<uint8_t>(p.codec);
  if (p.codec == WireCodec::kFor) {
    p.enc_byte |= kEncSortedKnown | kEncSorted;  // FOR implies sorted
  } else {
    p.enc_byte |= SortednessBits(c);
  }
  return p;
}

void PutDictBody(Cursor* out, const ColPlan& p) {
  const Column& c = *p.col;
  const uint32_t* offsets = nullptr;
  size_t num_offsets = 0;
  const std::string* heap = nullptr;
  const uint32_t* codes = nullptr;
  if (p.dict) {
    offsets = p.dict->offsets.data();
    num_offsets = p.dict->offsets.size();
    heap = &p.dict->heap;
    codes = p.dict->codes.data();
  } else {
    const auto& dc = static_cast<const DictStrColumn&>(c);
    offsets = dc.dict()->offsets().data();
    num_offsets = dc.dict()->offsets().size();
    heap = &dc.dict()->heap();
    codes = dc.codes().data();
  }
  out->Put<uint32_t>(static_cast<uint32_t>(num_offsets - 1));
  out->PutBytes(offsets, num_offsets * sizeof(uint32_t));
  out->Put<uint64_t>(heap->size());
  out->PutBytes(heap->data(), heap->size());
  out->Put<uint8_t>(static_cast<uint8_t>(p.code_bits));
  const size_t packed = enc::PackedBytes(c.size(), p.code_bits);
  if (packed == 0) return;
  auto* dst = reinterpret_cast<uint8_t*>(out->Skip(packed));
  enc::PackBits(c.size(), p.code_bits, dst,
                [codes](size_t i) { return uint64_t{codes[i]}; });
}

void PutForBody(Cursor* out, const ColPlan& p) {
  const Column& c = *p.col;
  const size_t n = c.size();
  const uint64_t ref = static_cast<uint64_t>(p.forp.ref);
  const unsigned bits = p.forp.bits;
  out->Put<uint64_t>(ref);
  out->Put<uint8_t>(static_cast<uint8_t>(bits));
  const size_t packed = enc::PackedBytes(n, bits);
  if (packed == 0) return;
  auto* dst = reinterpret_cast<uint8_t*>(out->Skip(packed));
  if (c.kind() == ColumnKind::kDense) {
    // A dense tail's deltas are the iota itself.
    enc::PackBits(n, bits, dst, [](size_t i) { return static_cast<uint64_t>(i); });
    return;
  }
  switch (c.type()) {
    case ValType::kOid: {
      const auto* v = static_cast<const Oid*>(c.RawData());
      enc::PackBits(n, bits, dst, [v, ref](size_t i) { return v[i] - ref; });
      break;
    }
    case ValType::kInt:
    case ValType::kDate: {
      const auto* v = static_cast<const int32_t*>(c.RawData());
      enc::PackBits(n, bits, dst, [v, ref](size_t i) {
        return static_cast<uint64_t>(static_cast<int64_t>(v[i])) - ref;
      });
      break;
    }
    case ValType::kLng: {
      const auto* v = static_cast<const int64_t*>(c.RawData());
      enc::PackBits(n, bits, dst,
                    [v, ref](size_t i) { return static_cast<uint64_t>(v[i]) - ref; });
      break;
    }
    default:
      DCY_FATAL() << "FOR codec on non-integer column";
  }
}

void PutColumn(Cursor* out, const ColPlan& p) {
  const Column& c = *p.col;
  out->Put<uint8_t>(static_cast<uint8_t>(c.type()));
  out->Put<uint8_t>(p.enc_byte);
  out->Put<uint64_t>(c.size());
  switch (p.codec) {
    case WireCodec::kPlain:
      if (c.type() == ValType::kStr) PutPlainStrBody(out, c);
      else PutPlainFixedBody(out, c);
      break;
    case WireCodec::kDict:
      PutDictBody(out, p);
      break;
    case WireCodec::kFor:
      PutForBody(out, p);
      break;
  }
}

/// Decodes a pass-through column body (encoding byte kPlain).
Result<ColumnPtr> GetPlainBody(std::string_view in, size_t* pos, ValType type,
                               uint64_t n) {
  if (type == ValType::kStr) {
    uint64_t num_offsets = 0;
    DCY_RETURN_NOT_OK(Get(in, pos, &num_offsets));
    if (num_offsets != n + 1) return Status::Corruption("bad offset count");
    if (num_offsets * sizeof(uint32_t) > in.size() - *pos) {
      return Status::Corruption("truncated offsets");
    }
    std::vector<uint32_t> offsets(num_offsets);
    std::memcpy(offsets.data(), in.data() + *pos, num_offsets * sizeof(uint32_t));
    *pos += num_offsets * sizeof(uint32_t);
    uint64_t heap_size = 0;
    DCY_RETURN_NOT_OK(Get(in, pos, &heap_size));
    if (heap_size > in.size() - *pos) return Status::Corruption("truncated heap");
    std::string heap(in.data() + *pos, heap_size);
    *pos += heap_size;
    return ColumnPtr(std::make_shared<StrColumn>(std::move(offsets), std::move(heap)));
  }
  // Fixed width: one bounds check, one memcpy into the backing vector.
  const size_t payload = n * ValTypeWidth(type);
  if (payload > in.size() - *pos) return Status::Corruption("truncated column payload");
  const char* src = in.data() + *pos;
  *pos += payload;
  auto copy_vec = [&](auto tag) {
    using T = decltype(tag);
    std::vector<T> v(n);
    if (payload > 0) std::memcpy(v.data(), src, payload);
    return ColumnPtr(std::make_shared<FixedColumn<T>>(type, std::move(v)));
  };
  switch (type) {
    case ValType::kOid: return copy_vec(Oid{});
    case ValType::kInt:
    case ValType::kDate: return copy_vec(int32_t{});
    case ValType::kLng: return copy_vec(int64_t{});
    case ValType::kDbl: return copy_vec(double{});
    case ValType::kStr: break;  // unreachable
  }
  return Status::Corruption("bad column type");
}

/// Column: [type u8][enc u8][count u64][codec body].
Result<ColumnPtr> GetColumn(std::string_view in, size_t* pos) {
  uint8_t type_raw = 0, enc_byte = 0;
  uint64_t n = 0;
  DCY_RETURN_NOT_OK(Get(in, pos, &type_raw));
  DCY_RETURN_NOT_OK(Get(in, pos, &enc_byte));
  DCY_RETURN_NOT_OK(Get(in, pos, &n));
  if (type_raw > static_cast<uint8_t>(ValType::kDate)) {
    return Status::Corruption("bad column type");
  }
  if ((enc_byte & ~kEncKnownBits) != 0) return Status::Corruption("bad encoding byte");
  const uint8_t codec_raw = enc_byte & kEncCodecMask;
  if (codec_raw > static_cast<uint8_t>(WireCodec::kFor)) {
    return Status::Corruption("unknown column codec");
  }
  const ValType type = static_cast<ValType>(type_raw);
  const auto codec = static_cast<WireCodec>(codec_raw);
  // Packed bodies can legitimately cost under a byte per row (a constant
  // FOR column is 9 bytes at any length), so the plain bytes-per-row bound
  // only applies to pass-through columns; cap packed counts absolutely.
  if (n > (uint64_t{1} << 32)) return Status::Corruption("implausible row count");

  ColumnPtr col;
  switch (codec) {
    case WireCodec::kPlain: {
      if (n > in.size() / 4) return Status::Corruption("implausible row count");
      DCY_ASSIGN_OR_RETURN(col, GetPlainBody(in, pos, type, n));
      break;
    }
    case WireCodec::kDict: {
      if (type != ValType::kStr) {
        return Status::Corruption("dict codec on non-string column");
      }
      uint32_t dict_count = 0;
      DCY_RETURN_NOT_OK(Get(in, pos, &dict_count));
      if (dict_count >= (uint32_t{1} << 31)) {
        return Status::Corruption("implausible dictionary");
      }
      const uint64_t num_offsets = uint64_t{dict_count} + 1;
      if (num_offsets * sizeof(uint32_t) > in.size() - *pos) {
        return Status::Corruption("truncated dictionary offsets");
      }
      std::vector<uint32_t> offsets(num_offsets);
      std::memcpy(offsets.data(), in.data() + *pos, num_offsets * sizeof(uint32_t));
      *pos += num_offsets * sizeof(uint32_t);
      uint64_t heap_size = 0;
      DCY_RETURN_NOT_OK(Get(in, pos, &heap_size));
      if (heap_size > in.size() - *pos) {
        return Status::Corruption("truncated dictionary heap");
      }
      // The dictionary feeds GetString for every row, so its offsets are
      // validated up front (monotone, heap-bounded) — unlike plain string
      // bodies, where the CRC is the only guard.
      if (offsets.front() != 0 || offsets.back() != heap_size) {
        return Status::Corruption("bad dictionary offsets");
      }
      for (size_t k = 1; k < offsets.size(); ++k) {
        if (offsets[k] < offsets[k - 1]) {
          return Status::Corruption("bad dictionary offsets");
        }
      }
      std::string heap(in.data() + *pos, heap_size);
      *pos += heap_size;
      uint8_t code_bits = 0;
      DCY_RETURN_NOT_OK(Get(in, pos, &code_bits));
      if (code_bits > 32) return Status::Corruption("bad code width");
      const size_t packed = enc::PackedBytes(n, code_bits);
      if (packed > in.size() - *pos) return Status::Corruption("truncated codes");
      std::vector<uint32_t> codes(n);
      // Readable length is the whole remaining frame, not just the packed
      // payload: the unpack windows may read a few bytes past the payload
      // but stay inside the buffer, which keeps the SIMD path on through
      // the tail.
      if (!enc::UnpackBits32(reinterpret_cast<const uint8_t*>(in.data() + *pos),
                             in.size() - *pos, n, code_bits, codes.data())) {
        return Status::Corruption("truncated codes");
      }
      *pos += packed;
      for (const uint32_t code : codes) {
        if (code >= dict_count) return Status::Corruption("code out of dictionary range");
      }
      auto dict = std::make_shared<StrColumn>(std::move(offsets), std::move(heap));
      col = std::make_shared<DictStrColumn>(std::move(dict), std::move(codes));
      break;
    }
    case WireCodec::kFor: {
      if (type == ValType::kDbl || type == ValType::kStr) {
        return Status::Corruption("FOR codec on non-integer column");
      }
      uint64_t ref = 0;
      uint8_t bits = 0;
      DCY_RETURN_NOT_OK(Get(in, pos, &ref));
      DCY_RETURN_NOT_OK(Get(in, pos, &bits));
      if (bits > enc::kMaxPackBits) return Status::Corruption("bad delta width");
      const size_t packed = enc::PackedBytes(n, bits);
      if (packed > in.size() - *pos) return Status::Corruption("truncated deltas");
      const auto* src = reinterpret_cast<const uint8_t*>(in.data() + *pos);
      const size_t avail = in.size() - *pos;
      if (type == ValType::kInt || type == ValType::kDate) {
        std::vector<uint64_t> tmp(n);
        if (!enc::UnpackBits64(src, avail, n, bits, ref, tmp.data())) {
          return Status::Corruption("truncated deltas");
        }
        std::vector<int32_t> v(n);
        for (size_t i = 0; i < n; ++i) v[i] = static_cast<int32_t>(tmp[i]);
        col = std::make_shared<FixedColumn<int32_t>>(type, std::move(v));
      } else if (type == ValType::kOid) {
        std::vector<Oid> v(n);
        if (!enc::UnpackBits64(src, avail, n, bits, ref, v.data())) {
          return Status::Corruption("truncated deltas");
        }
        col = std::make_shared<FixedColumn<Oid>>(type, std::move(v));
      } else {
        std::vector<int64_t> v(n);
        if (!enc::UnpackBits64(src, avail, n, bits, ref,
                               reinterpret_cast<uint64_t*>(v.data()))) {
          return Status::Corruption("truncated deltas");
        }
        col = std::make_shared<FixedColumn<int64_t>>(type, std::move(v));
      }
      *pos += packed;
      break;
    }
  }
  // Satellite of the codec work: the sender's memoized sortedness rides the
  // encoding byte, so the receiver's IsSorted() cache starts warm.
  if ((enc_byte & kEncSortedKnown) != 0) {
    col->SeedSortedness((enc_byte & kEncSorted) != 0);
  }
  return col;
}

uint8_t PackProps(const Bat::Properties& p) {
  return static_cast<uint8_t>((p.tsorted ? 1 : 0) | (p.tkey ? 2 : 0) |
                              (p.hsorted ? 4 : 0) | (p.hkey ? 8 : 0));
}

Bat::Properties UnpackProps(uint8_t v) {
  Bat::Properties p;
  p.tsorted = (v & 1) != 0;
  p.tkey = (v & 2) != 0;
  p.hsorted = (v & 4) != 0;
  p.hkey = (v & 8) != 0;
  return p;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  // Slicing-by-8: processes 8 input bytes per step through 8 derived tables
  // (~6-8x the classic byte-at-a-time loop). Same IEEE polynomial and
  // values; the frames this guards are multi-MB BATs, so the CRC is a
  // first-order cost of every ring hop.
  static uint32_t table[8][256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[0][i] = c;
    }
    for (int s = 1; s < 8; ++s) {
      for (uint32_t i = 0; i < 256; ++i) {
        table[s][i] = (table[s - 1][i] >> 8) ^ table[0][table[s - 1][i] & 0xFF];
      }
    }
    return true;
  }();
  (void)init;
  uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const uint8_t*>(data);
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n >= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = table[7][lo & 0xFF] ^ table[6][(lo >> 8) & 0xFF] ^
          table[5][(lo >> 16) & 0xFF] ^ table[4][lo >> 24] ^ table[3][hi & 0xFF] ^
          table[2][(hi >> 8) & 0xFF] ^ table[1][(hi >> 16) & 0xFF] ^ table[0][hi >> 24];
    p += 8;
    n -= 8;
  }
#endif
  for (size_t i = 0; i < n; ++i) crc = table[0][(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

struct FrameEncoder::Plan {
  const Bat* bat = nullptr;
  std::optional<ColPlan> head;  ///< nullopt when the head is dense
  ColPlan tail;
  size_t total = 0;
  CodecStats stats;
};

namespace {

/// Body size of the planned column had it shipped plain.
size_t PlainSize(const ColPlan& p) {
  return p.codec == WireCodec::kPlain ? p.body_size : PlainBodySize(*p.col);
}

void CountColumn(WireCodec codec, CodecStats* stats) {
  switch (codec) {
    case WireCodec::kPlain: ++stats->plain_columns; break;
    case WireCodec::kDict: ++stats->dict_columns; break;
    case WireCodec::kFor: ++stats->for_columns; break;
  }
}

}  // namespace

FrameEncoder::FrameEncoder(const Bat& b) : plan_(std::make_unique<Plan>()) {
  Plan& p = *plan_;
  p.bat = &b;
  const bool compress = enc::WireCompressionEnabled();
  constexpr size_t kColHeader = 1 + 1 + 8;  // type, encoding byte, row count
  // `raw` sizes the same frame with every column plain: with compression off
  // it equals the frame size exactly.
  size_t total = kPreludeBytes;
  size_t raw = kPreludeBytes;
  if (b.HasDenseHead()) {
    total += 8 + 8;  // seqbase + count
    raw += 8 + 8;
  } else {
    p.head = PlanColumn(*b.head(), compress);
    total += kColHeader + p.head->body_size;
    raw += kColHeader + PlainSize(*p.head);
    CountColumn(p.head->codec, &p.stats);
  }
  p.tail = PlanColumn(*b.tail(), compress);
  total += kColHeader + p.tail.body_size;
  raw += kColHeader + PlainSize(p.tail);
  CountColumn(p.tail.codec, &p.stats);
  p.total = total + kCrcBytes;
  p.stats.raw_bytes = raw + kCrcBytes;
  p.stats.wire_bytes = p.total;
}

FrameEncoder::~FrameEncoder() = default;

size_t FrameEncoder::encoded_size() const { return plan_->total; }

const CodecStats& FrameEncoder::stats() const { return plan_->stats; }

void FrameEncoder::SerializeInto(std::string* out) const {
  const Plan& p = *plan_;
  const Bat& b = *p.bat;
  Cursor cur(out, p.total);
  cur.Put<uint32_t>(kMagic);
  cur.Put<uint16_t>(kVersion);
  cur.Put<uint8_t>(PackProps(b.props()));

  if (b.HasDenseHead()) {
    cur.Put<uint8_t>(static_cast<uint8_t>(HeadKind::kDense));
    cur.Put<uint64_t>(b.HeadSeqbase());
    cur.Put<uint64_t>(b.size());
  } else {
    cur.Put<uint8_t>(static_cast<uint8_t>(HeadKind::kMaterialized));
    PutColumn(&cur, *p.head);
  }
  PutColumn(&cur, p.tail);
  cur.Put<uint32_t>(Crc32(out->data(), cur.pos()));
  DCY_DCHECK(out->size() == p.total);
}

size_t EncodedSize(const Bat& b) { return FrameEncoder(b).encoded_size(); }

void SerializeInto(const Bat& b, std::string* out) {
  FrameEncoder(b).SerializeInto(out);
}

std::string Serialize(const Bat& b) {
  std::string out;
  SerializeInto(b, &out);
  return out;
}

Result<BatPtr> Deserialize(std::string_view buffer) {
  if (buffer.size() < kPreludeBytes + kCrcBytes) {
    return Status::Corruption("BAT buffer too small");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buffer.data() + buffer.size() - kCrcBytes, kCrcBytes);
  if (Crc32(buffer.data(), buffer.size() - kCrcBytes) != stored_crc) {
    return Status::Corruption("BAT buffer CRC mismatch");
  }

  size_t pos = 0;
  uint32_t magic = 0;
  uint16_t version = 0;
  uint8_t props_raw = 0, head_kind = 0;
  DCY_RETURN_NOT_OK(Get(buffer, &pos, &magic));
  if (magic != kMagic) return Status::Corruption("bad BAT magic");
  DCY_RETURN_NOT_OK(Get(buffer, &pos, &version));
  if (version != kVersion) return Status::Corruption("unsupported BAT version");
  DCY_RETURN_NOT_OK(Get(buffer, &pos, &props_raw));
  DCY_RETURN_NOT_OK(Get(buffer, &pos, &head_kind));

  ColumnPtr head;
  if (head_kind == static_cast<uint8_t>(HeadKind::kDense)) {
    uint64_t seqbase = 0, n = 0;
    DCY_RETURN_NOT_OK(Get(buffer, &pos, &seqbase));
    DCY_RETURN_NOT_OK(Get(buffer, &pos, &n));
    head = MakeDenseOid(seqbase, n);
  } else {
    DCY_ASSIGN_OR_RETURN(head, GetColumn(buffer, &pos));
  }
  DCY_ASSIGN_OR_RETURN(ColumnPtr tail, GetColumn(buffer, &pos));
  if (head->size() != tail->size()) return Status::Corruption("head/tail size mismatch");
  return BatPtr(std::make_shared<Bat>(std::move(head), std::move(tail),
                                      UnpackProps(props_raw)));
}

}  // namespace dcy::bat
