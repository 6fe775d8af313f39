#ifndef SHARK_COMMON_SIZE_ENCODING_H_
#define SHARK_COMMON_SIZE_ENCODING_H_

#include <cstdint>

namespace shark {

/// Lossy logarithmic encoding of byte sizes into a single byte, as used by
/// Shark's Partial DAG Execution statistics (§3.1): each map task reports its
/// per-reducer output partition sizes to the master, and to bound the report
/// to 1–2 KB per task the sizes are log-encoded with at most 10% relative
/// error for values up to 32 GB.
///
/// Encoding: code 0 represents 0 bytes; code k (1..255) represents
/// round(base^(k-1)) bytes with base chosen so that code 255 = 32 GB.
/// Consecutive codes then differ by a factor of base ≈ 1.1, i.e. the
/// round-to-nearest-code relative error is <= (base-1)/2 + rounding < 10%.
/// Both directions are lookups in tables built once from that log/exp
/// formula (each code's first size, each code's value), so they give exactly
/// what the formula gives.
class SizeEncoding {
 public:
  /// Encodes `bytes` to the nearest 1-byte code.
  static uint8_t Encode(uint64_t bytes);

  /// Decodes a code back to an approximate byte count.
  static uint64_t Decode(uint8_t code);

  /// Maximum representable size (32 GB).
  static constexpr uint64_t kMaxSize = 32ULL * 1024 * 1024 * 1024;
};

}  // namespace shark

#endif  // SHARK_COMMON_SIZE_ENCODING_H_
