#ifndef IQ_QUANT_BIT_STREAM_H_
#define IQ_QUANT_BIT_STREAM_H_

#include <cstddef>
#include <cstdint>

#include "common/contract.h"

namespace iq {

/// Appends fixed-width bit fields to a byte buffer, LSB-first within each
/// byte. Used to pack quantized point coordinates into data pages.
///
/// Puts are staged through a 64-bit accumulator and stored to the
/// buffer one whole byte at a time — roughly one store per byte
/// instead of the old read-modify-write per field — so a trailing
/// partial byte only reaches the buffer on Flush(). The typestate
/// protocol (common/contract.h, iqlint check `typestate`) makes the
/// easy mistake — dropping a writer without flushing and silently
/// truncating the last field — a static finding.
class BitWriter {
 public:
  IQ_TYPESTATE("open");
  IQ_TS_FINAL("flushed");

  /// Writes into `out`, starting at bit `bit_offset` from the buffer
  /// start. The caller guarantees `out` is large enough and zeroed in
  /// the region written. A partial first byte is preloaded from the
  /// buffer, so appending after a previous writer's Flush() is safe.
  BitWriter(uint8_t* out, size_t bit_offset = 0)
      : out_(out), byte_pos_(bit_offset >> 3) {
    const unsigned partial = static_cast<unsigned>(bit_offset & 7u);
    if (partial != 0) {
      acc_ = out_[byte_pos_] & static_cast<uint8_t>((1u << partial) - 1u);
      acc_bits_ = partial;
    }
  }

  /// Appends the low `width` bits of `value` (width in [0, 32]).
  /// A width-0 put writes nothing and does not advance the cursor.
  void Put(uint32_t value, unsigned width) IQ_TS_REQUIRES("open");

  /// Stores the staged partial byte (if any). Must be called before
  /// the written region is read or the writer goes out of scope; the
  /// `typestate` check enforces exactly that. OR-writes into the
  /// caller-zeroed buffer, so flushing with no staged bits is a no-op.
  void Flush() IQ_TS_TRANSITION("open", "flushed");

  /// Bits written so far (including the initial offset).
  size_t bit_position() const { return (byte_pos_ << 3) + acc_bits_; }

 private:
  uint8_t* out_;
  size_t byte_pos_;
  uint64_t acc_ = 0;       // staged bits, low acc_bits_ valid
  unsigned acc_bits_ = 0;  // in [0, 7] between Puts
};

/// Reads fixed-width bit fields written by BitWriter.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t bit_offset = 0)
      : data_(data), bit_pos_(bit_offset) {}

  /// Reads the next `width`-bit field (width in [0, 32]). A width-0
  /// read returns 0 and does not advance the cursor (so a g = 0 field
  /// round-trips as the value 0 without touching the buffer).
  uint32_t Get(unsigned width);

  /// Repositions the cursor to an absolute bit offset.
  void Seek(size_t bit_offset) { bit_pos_ = bit_offset; }

  size_t bit_position() const { return bit_pos_; }

 private:
  const uint8_t* data_;
  size_t bit_pos_;
};

}  // namespace iq

#endif  // IQ_QUANT_BIT_STREAM_H_
