// Arbitrary-width bit vector used as the bit-accurate image of a scan
// chain (DESIGN.md: src/sim/scan_chain). Bit 0 is the first bit shifted
// out of the chain. Unlike std::vector<bool> this exposes word-sized
// field extraction/insertion, which is how named state elements (a 32-bit
// register at chain position p) are read and written.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace goofi {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t bit_count) { Resize(bit_count); }

  std::size_t size() const { return bit_count_; }
  bool empty() const { return bit_count_ == 0; }

  void Resize(std::size_t bit_count);
  void Clear();  // size -> 0

  bool Get(std::size_t bit) const;
  void Set(std::size_t bit, bool value);
  void Flip(std::size_t bit);

  // Extract/insert a little-endian field of up to 64 bits starting at
  // `bit`. Fields may straddle word boundaries.
  std::uint64_t GetField(std::size_t bit, std::size_t width) const;
  void SetField(std::size_t bit, std::size_t width, std::uint64_t value);

  // Number of set bits, and number of differing bits vs `other`
  // (vectors must be the same size).
  std::size_t PopCount() const;
  std::size_t HammingDistance(const BitVector& other) const;

  void FillZero();
  void FillOne();

  // Shift `count` bits through the vector, as `count` one-bit
  // shift-register steps would: each step moves every bit down one place,
  // the old bit 0 leaves, and the next bit of `*in` (bit 0 first; zeros
  // when `in` is null) enters as the new top bit. The bits that left go
  // to `*out`, resized to `count`, first one at bit 0, unless `out` is
  // null. `in` holds `count` bits; `in`, `out` and this vector are three
  // distinct objects. Word-level:
  // O((size + count) / 64), not O(size * count). This is the TAP
  // controller's Shift-DR pass (sim/tap.h).
  void ShiftThrough(std::size_t count, const BitVector* in, BitVector* out);
  // The one-bit case: insert `top` as the new highest bit and return the
  // old bit 0.
  bool ShiftRightInsertTop(bool top);

  // '0'/'1' string, bit 0 first; and the inverse parse ("0110...").
  std::string ToBitString() const;
  static BitVector FromBitString(const std::string& bits);

  // Compact hex serialization (lowercase, 4 bits per char, bit 0 in the
  // low nibble of the first char), prefixed with "<bitcount>:".
  std::string ToHexString() const;
  static bool FromHexString(const std::string& text, BitVector* out);

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.bit_count_ == b.bit_count_ && a.words_ == b.words_;
  }

 private:
  void MaskTail();  // zero the unused bits of the last word
  // The one shift path, on words: `in` and `out` hold WordCount(count)
  // words each, or are null (zeros enter; what leaves is discarded).
  void ShiftThrough(const std::uint64_t* in, std::size_t count,
                    std::uint64_t* out);

  std::size_t bit_count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace goofi
