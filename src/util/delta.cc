#include "src/util/delta.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <vector>

#include "src/util/crc32.h"

namespace rover {
namespace {

constexpr uint32_t kMagic = 0x314c4452u;  // "RDL1", little-endian
constexpr size_t kMinMatch = 8;           // shorter copies cost more than literals
constexpr size_t kMaxChainDepth = 16;     // candidate positions probed per hash
constexpr uint32_t kNoPos = UINT32_MAX;   // end of a chain / an empty slot

uint32_t HashAt(const uint8_t* p) {
  // 8-byte rolling key; multiplicative hash keeps the table well spread for
  // the repetitive text bodies (mail folders, calendars) deltas target.
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return static_cast<uint32_t>((v * 0x9e3779b97f4a7c15ull) >> 32);
}

// Every position of a base, chained by HashAt. An open-addressed table maps
// each distinct hash to the first position of its chain, and next_[i] links
// position i to the following position with the same hash. The index is
// filled from the end of the base, so every chain runs in base order.
class BaseIndex {
 public:
  explicit BaseIndex(const Bytes& base) {
    const size_t positions = base.size() < kMinMatch ? 0 : base.size() - kMinMatch + 1;
    int bits = 4;
    while ((size_t{1} << bits) < 2 * positions) {
      ++bits;
    }
    shift_ = 32 - bits;  // the hash's top bits pick the slot
    slots_.assign(size_t{1} << bits, Slot{0, kNoPos});
    next_ = std::make_unique_for_overwrite<uint32_t[]>(positions);
    for (size_t i = positions; i-- > 0;) {
      const uint32_t hash = HashAt(base.data() + i);
      Slot& slot = slots_[SlotFor(hash)];
      slot.hash = hash;
      next_[i] = slot.head;
      slot.head = static_cast<uint32_t>(i);
    }
  }

  // The first position whose 8 bytes hash to `hash`, or kNoPos.
  uint32_t First(uint32_t hash) const { return slots_[SlotFor(hash)].head; }
  uint32_t Next(uint32_t pos) const { return next_[pos]; }

 private:
  struct Slot {
    uint32_t hash;
    uint32_t head;  // kNoPos: the slot is empty
  };

  // The slot holding `hash`, or the empty slot where it belongs.
  size_t SlotFor(uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t s = hash >> shift_;
    while (slots_[s].head != kNoPos && slots_[s].hash != hash) {
      s = (s + 1) & mask;
    }
    return s;
  }

  int shift_ = 0;
  std::vector<Slot> slots_;
  std::unique_ptr<uint32_t[]> next_;
};

// Length of the common prefix of `a` and `b`, at most `limit`, compared a
// word at a time.
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t limit) {
  size_t len = 0;
  while (len + sizeof(uint64_t) <= limit) {
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a + len, sizeof(x));
    std::memcpy(&y, b + len, sizeof(y));
    if (x != y) {
      const uint64_t diff = x ^ y;
      if constexpr (std::endian::native == std::endian::little) {
        return len + static_cast<size_t>(std::countr_zero(diff)) / 8;
      } else {
        return len + static_cast<size_t>(std::countl_zero(diff)) / 8;
      }
    }
    len += sizeof(uint64_t);
  }
  while (len < limit && a[len] == b[len]) {
    ++len;
  }
  return len;
}

void EmitLiteral(WireWriter& w, const Bytes& target, size_t start, size_t end) {
  if (end <= start) {
    return;
  }
  const size_t len = end - start;
  w.WriteVarint(static_cast<uint64_t>(len) << 1);  // low bit 0 = literal
  w.WriteRaw(target.data() + start, len);
}

}  // namespace

Bytes DeltaEncode(const Bytes& base, const Bytes& target) {
  WireWriter w;
  w.Reserve(20 + target.size() / 8);
  w.WriteFixed32(kMagic);
  w.WriteFixed32(Crc32(base.data(), base.size()));
  w.WriteFixed32(Crc32(target.data(), target.size()));
  w.WriteVarint(target.size());

  // Each lookup probes the first kMaxChainDepth positions of the base with
  // the same 8-byte hash, in base order, and keeps the first longest match.
  const BaseIndex index(base);
  size_t literal_start = 0;
  size_t pos = 0;
  while (pos + kMinMatch <= target.size()) {
    size_t best_len = 0;
    size_t best_off = 0;
    uint32_t cand = index.First(HashAt(target.data() + pos));
    for (size_t depth = 0; depth < kMaxChainDepth && cand != kNoPos; ++depth) {
      const size_t limit = std::min(base.size() - cand, target.size() - pos);
      const size_t len = MatchLength(base.data() + cand, target.data() + pos, limit);
      if (len > best_len) {
        best_len = len;
        best_off = cand;
      }
      if (len == limit) {
        break;  // later candidates have less base left: none can match longer
      }
      cand = index.Next(cand);
    }
    if (best_len >= kMinMatch) {
      EmitLiteral(w, target, literal_start, pos);
      w.WriteVarint((static_cast<uint64_t>(best_len) << 1) | 1);  // low bit 1 = copy
      w.WriteVarint(best_off);
      pos += best_len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  EmitLiteral(w, target, literal_start, target.size());
  return w.TakeData();
}

Result<Bytes> DeltaApply(const Bytes& base, const Bytes& delta) {
  WireReader r(delta);
  auto magic = r.ReadFixed32();
  if (!magic.ok() || *magic != kMagic) {
    return DataLossError("delta: bad magic");
  }
  auto base_crc = r.ReadFixed32();
  auto target_crc = r.ReadFixed32();
  auto target_len = r.ReadVarint();
  if (!base_crc.ok() || !target_crc.ok() || !target_len.ok()) {
    return DataLossError("delta: truncated header");
  }
  if (Crc32(base.data(), base.size()) != *base_crc) {
    return FailedPreconditionError("delta: base version mismatch");
  }
  // The header length is wire data, so sanity-check it before trusting it
  // with an allocation: a corrupt varint can claim up to 2^64-1, and
  // reserve() on that throws instead of returning the documented kDataLoss.
  // A well-formed delta cannot reconstruct more than its ops allow -- each
  // op costs at least two bytes and emits at most max(base.size(), 1)
  // bytes (copies are capped by the base; literals carry their own bytes)
  // -- so anything past that bound is corruption. Division keeps the
  // comparison overflow-free.
  const uint64_t per_op_max = std::max<uint64_t>(base.size(), 1);
  if (*target_len > delta.size() &&
      *target_len / per_op_max > delta.size() / 2 + 1) {
    return DataLossError("delta: implausible target length");
  }

  Bytes out;
  out.reserve(static_cast<size_t>(*target_len));
  while (!r.AtEnd()) {
    auto op = r.ReadVarint();
    if (!op.ok()) {
      return DataLossError("delta: truncated op");
    }
    const size_t len = static_cast<size_t>(*op >> 1);
    if (len == 0 || len > *target_len - out.size()) {
      return DataLossError("delta: op overruns target length");
    }
    if (*op & 1) {
      auto off = r.ReadVarint();
      if (!off.ok() || *off > base.size() || len > base.size() - *off) {
        return DataLossError("delta: copy overruns base");
      }
      out.insert(out.end(), base.begin() + static_cast<ptrdiff_t>(*off),
                 base.begin() + static_cast<ptrdiff_t>(*off + len));
    } else {
      auto lit = r.ReadRaw(len);
      if (!lit.ok()) {
        return DataLossError("delta: truncated literal");
      }
      out.insert(out.end(), *lit, *lit + len);
    }
  }
  if (out.size() != *target_len) {
    return DataLossError("delta: reconstructed length mismatch");
  }
  if (Crc32(out.data(), out.size()) != *target_crc) {
    return DataLossError("delta: reconstructed bytes fail checksum");
  }
  return out;
}

}  // namespace rover
