// CRC-32 checksums (the IEEE 802.3 polynomial, as used by zip/png).
//
// The sweep result journal (exec::ResultJournal) stamps every record with
// a checksum so a crash mid-append — a torn final line — is detected on
// the next read instead of being parsed as garbage. CRC-32 is not
// cryptographic; it detects corruption, not tampering, which is exactly
// the contract a local crash-safe journal needs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace grophecy::util {

/// CRC-32 of `data` (IEEE polynomial, reflected, init/final 0xFFFFFFFF).
/// crc32("123456789") == 0xCBF43926, the standard check value.
std::uint32_t crc32(std::string_view data);

/// The checksum as fixed-width lowercase hex ("cbf43926").
std::string crc32_hex(std::string_view data);

/// FNV-1a 64-bit hash of `data`. Deterministic across platforms and
/// processes; used for sweep job fingerprints, per-job RNG stream
/// derivation, and calibration-cache keys. Not cryptographic.
std::uint64_t fnv1a64(std::string_view data);

/// Folds `value` into an FNV-1a hash in progress (for hashing structs
/// field by field: start from fnv1a64("") or a previous fold). FNV-1a
/// over the value's eight bytes, little-endian. Inline: util::KeyBuilder
/// folds every key byte through it.
inline std::uint64_t fnv1a64_fold(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer. Seeding a
/// stochastic stream with splitmix64(base ^ fnv1a64(key)) gives every key
/// a decorrelated stream that is a pure function of (base, key).
std::uint64_t splitmix64(std::uint64_t value);

}  // namespace grophecy::util
