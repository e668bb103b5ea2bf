#include "quant/bit_stream.h"

#include <algorithm>
#include <cassert>

namespace iq {

void BitWriter::Put(uint32_t value, unsigned width) {
  assert(width <= 32);
  if (width < 32) value &= (uint32_t{1} << width) - 1;
  // Stage into the accumulator (at most 7 + 32 bits) and store whole
  // bytes. Plain stores are correct: the region is caller-zeroed, and
  // a partial first byte was preloaded by the constructor.
  acc_ |= static_cast<uint64_t>(value) << acc_bits_;
  acc_bits_ += width;
  while (acc_bits_ >= 8) {
    out_[byte_pos_++] = static_cast<uint8_t>(acc_ & 0xFFu);
    acc_ >>= 8;
    acc_bits_ -= 8;
  }
}

void BitWriter::Flush() {
  if (acc_bits_ > 0) {
    // OR, not a plain store: the trailing byte may be shared with a
    // later append at this writer's end position.
    out_[byte_pos_] = static_cast<uint8_t>(out_[byte_pos_] | (acc_ & 0xFFu));
  }
}

uint32_t BitReader::Get(unsigned width) {
  assert(width <= 32);
  uint32_t value = 0;
  unsigned produced = 0;
  while (produced < width) {
    const size_t byte = bit_pos_ >> 3;
    const unsigned bit_in_byte = bit_pos_ & 7;
    const unsigned take = std::min(width - produced, 8 - bit_in_byte);
    const uint32_t chunk =
        (static_cast<uint32_t>(data_[byte]) >> bit_in_byte) &
        ((uint32_t{1} << take) - 1);
    value |= chunk << produced;
    bit_pos_ += take;
    produced += take;
  }
  return value;
}

}  // namespace iq
