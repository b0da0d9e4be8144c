// Hash-combining utilities used by the explorers' seen-state sets, and
// the content digest that labels serve's cache entries and checkpoints.
#ifndef RAPAR_COMMON_HASH_H_
#define RAPAR_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rapar {

// Mixes `v` into the running hash `seed` (boost::hash_combine style, with a
// 64-bit mixing constant).
inline void HashCombine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

// Hashes any range of hashable elements.
template <typename Range>
std::size_t HashRange(const Range& range) {
  std::size_t seed = 0x12345678;
  for (const auto& elem : range) {
    HashCombine(seed, std::hash<std::decay_t<decltype(elem)>>{}(elem));
  }
  return seed;
}

// SplitMix64: fast, high-quality 64-bit mixer. Used both for hashing (as a
// finalizer after HashCombine, whose low bits barely depend on the high
// bits of its inputs) and as the core of the deterministic RNG.
inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// 128-bit digest of a canonical string, as 32 hex digits (two independent
// FNV-1a lanes, SplitMix64-finalized). Not cryptographic: it tells
// different inputs apart, it does not resist forgery. Serve labels its
// cache entries with it (the cache itself is keyed by the full string);
// a checkpoint records it to name the query it was taken for.
inline std::string FingerprintDigest(std::string_view canonical) {
  std::uint64_t a = 0xcbf29ce484222325ull;
  std::uint64_t b = 0x9e3779b97f4a7c15ull;
  for (const unsigned char c : canonical) {
    a = (a ^ c) * 0x100000001b3ull;
    b = (b ^ (c + 0x9dull)) * 0x100000001b3ull;
  }
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(SplitMix64(a)),
                static_cast<unsigned long long>(SplitMix64(b)));
  return buf;
}

// Hash functor for std::vector of hashable T.
template <typename T>
struct VectorHash {
  std::size_t operator()(const std::vector<T>& v) const {
    return HashRange(v);
  }
};

// Hash functor for std::pair.
template <typename A, typename B>
struct PairHash {
  std::size_t operator()(const std::pair<A, B>& p) const {
    std::size_t seed = std::hash<A>{}(p.first);
    HashCombine(seed, std::hash<B>{}(p.second));
    return seed;
  }
};

}  // namespace rapar

#endif  // RAPAR_COMMON_HASH_H_
