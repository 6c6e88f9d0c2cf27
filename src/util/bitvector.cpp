#include "util/bitvector.h"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace goofi {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t WordCount(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

// The 64 bits of `words` (a vector of `bits` bits, tail masked) starting
// at bit `pos`, with zeros wherever the window reaches outside [0, bits).
std::uint64_t Window(const std::uint64_t* words, std::size_t bits,
                     std::ptrdiff_t pos) {
  if (pos <= -static_cast<std::ptrdiff_t>(kWordBits) ||
      pos >= static_cast<std::ptrdiff_t>(bits)) {
    return 0;
  }
  if (pos < 0) return words[0] << -pos;
  const std::size_t word = static_cast<std::size_t>(pos) / kWordBits;
  const std::size_t shift = static_cast<std::size_t>(pos) % kWordBits;
  std::uint64_t value = words[word] >> shift;
  if (shift != 0 && word + 1 < WordCount(bits)) {
    value |= words[word + 1] << (kWordBits - shift);
  }
  return value;
}
}  // namespace

void BitVector::Resize(std::size_t bit_count) {
  bit_count_ = bit_count;
  words_.resize(WordCount(bit_count), 0);
  MaskTail();
}

void BitVector::Clear() {
  bit_count_ = 0;
  words_.clear();
}

void BitVector::MaskTail() {
  if (bit_count_ % kWordBits != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << (bit_count_ % kWordBits)) - 1;
  }
}

bool BitVector::Get(std::size_t bit) const {
  assert(bit < bit_count_);
  return (words_[bit / kWordBits] >> (bit % kWordBits)) & 1u;
}

void BitVector::Set(std::size_t bit, bool value) {
  assert(bit < bit_count_);
  const std::uint64_t mask = std::uint64_t{1} << (bit % kWordBits);
  if (value) {
    words_[bit / kWordBits] |= mask;
  } else {
    words_[bit / kWordBits] &= ~mask;
  }
}

void BitVector::Flip(std::size_t bit) {
  assert(bit < bit_count_);
  words_[bit / kWordBits] ^= std::uint64_t{1} << (bit % kWordBits);
}

std::uint64_t BitVector::GetField(std::size_t bit, std::size_t width) const {
  assert(width >= 1 && width <= 64);
  assert(bit + width <= bit_count_);
  const std::size_t word = bit / kWordBits;
  const std::size_t shift = bit % kWordBits;
  std::uint64_t value = words_[word] >> shift;
  if (shift + width > kWordBits) {
    value |= words_[word + 1] << (kWordBits - shift);
  }
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  return value;
}

void BitVector::SetField(std::size_t bit, std::size_t width,
                         std::uint64_t value) {
  assert(width >= 1 && width <= 64);
  assert(bit + width <= bit_count_);
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  const std::size_t word = bit / kWordBits;
  const std::size_t shift = bit % kWordBits;
  const std::uint64_t low_mask =
      (width == 64 && shift == 0)
          ? ~std::uint64_t{0}
          : ((shift + width >= kWordBits)
                 ? ~((std::uint64_t{1} << shift) - 1)
                 : (((std::uint64_t{1} << width) - 1) << shift));
  words_[word] = (words_[word] & ~low_mask) | ((value << shift) & low_mask);
  if (shift + width > kWordBits) {
    const std::size_t high_bits = shift + width - kWordBits;
    const std::uint64_t high_mask = (std::uint64_t{1} << high_bits) - 1;
    words_[word + 1] =
        (words_[word + 1] & ~high_mask) |
        ((value >> (kWordBits - shift)) & high_mask);
  }
}

std::size_t BitVector::PopCount() const {
  std::size_t count = 0;
  for (std::uint64_t w : words_) count += std::popcount(w);
  return count;
}

std::size_t BitVector::HammingDistance(const BitVector& other) const {
  assert(bit_count_ == other.bit_count_);
  std::size_t count = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    count += std::popcount(words_[i] ^ other.words_[i]);
  }
  return count;
}

void BitVector::FillZero() {
  for (auto& w : words_) w = 0;
}

void BitVector::FillOne() {
  for (auto& w : words_) w = ~std::uint64_t{0};
  MaskTail();
}

void BitVector::ShiftThrough(const std::uint64_t* in, std::size_t count,
                             std::uint64_t* out) {
  // The vector followed by `in` is one stream of size + count bits: its
  // first `count` bits leave, and the next `size` bits are what remains.
  std::uint64_t* self = words_.data();
  const auto n = static_cast<std::ptrdiff_t>(bit_count_);
  const auto stream_word = [&](std::ptrdiff_t pos) {
    const std::uint64_t low = Window(self, bit_count_, pos);
    return in != nullptr ? low | Window(in, count, pos - n) : low;
  };
  if (out != nullptr) {
    const std::size_t out_words = WordCount(count);
    for (std::size_t i = 0; i < out_words; ++i) {
      out[i] = stream_word(static_cast<std::ptrdiff_t>(i * kWordBits));
    }
    if (count % kWordBits != 0) {
      out[out_words - 1] &= (std::uint64_t{1} << (count % kWordBits)) - 1;
    }
  }
  // In place: word i is written only after every read of words >= i,
  // and the windows that build it start at or above bit i * 64. The new
  // top word needs no mask: the stream ends at size + count.
  for (std::size_t i = 0; i < words_.size(); ++i) {
    self[i] = stream_word(static_cast<std::ptrdiff_t>(count + i * kWordBits));
  }
}

void BitVector::ShiftThrough(std::size_t count, const BitVector* in,
                             BitVector* out) {
  assert(in == nullptr || (in->size() == count && in != out && in != this));
  assert(out != this);
  if (out != nullptr) out->Resize(count);
  ShiftThrough(in != nullptr ? in->words_.data() : nullptr, count,
               out != nullptr ? out->words_.data() : nullptr);
}

bool BitVector::ShiftRightInsertTop(bool top) {
  assert(bit_count_ > 0);
  const std::uint64_t in = top ? 1 : 0;
  std::uint64_t out = 0;
  ShiftThrough(&in, 1, &out);
  return out != 0;
}

std::string BitVector::ToBitString() const {
  std::string out;
  out.reserve(bit_count_);
  for (std::size_t i = 0; i < bit_count_; ++i) out.push_back(Get(i) ? '1' : '0');
  return out;
}

BitVector BitVector::FromBitString(const std::string& bits) {
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    v.Set(i, bits[i] == '1');
  }
  return v;
}

std::string BitVector::ToHexString() const {
  std::string out = std::to_string(bit_count_);
  out.push_back(':');
  static const char* kHex = "0123456789abcdef";
  const std::size_t nibbles = (bit_count_ + 3) / 4;
  for (std::size_t n = 0; n < nibbles; ++n) {
    const std::size_t bit = n * 4;
    const std::size_t width = std::min<std::size_t>(4, bit_count_ - bit);
    out.push_back(kHex[GetField(bit, width)]);
  }
  return out;
}

bool BitVector::FromHexString(const std::string& text, BitVector* out) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) return false;
  std::size_t bit_count = 0;
  try {
    bit_count = std::stoul(text.substr(0, colon));
  } catch (const std::exception&) {
    return false;
  }
  const std::string hex = text.substr(colon + 1);
  if (hex.size() != (bit_count + 3) / 4) return false;
  BitVector v(bit_count);
  for (std::size_t n = 0; n < hex.size(); ++n) {
    const char c = hex[n];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    const std::size_t bit = n * 4;
    const std::size_t width = std::min<std::size_t>(4, bit_count - bit);
    if (width < 4 && (nibble >> width) != 0) return false;
    v.SetField(bit, width, nibble);
  }
  *out = std::move(v);
  return true;
}

}  // namespace goofi
