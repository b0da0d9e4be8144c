// Shared helpers for the reproduction benches: each bench binary first
// regenerates its table/figure data on stdout (the "paper shape"), then
// runs its google-benchmark timings.
#ifndef RAPAR_BENCH_BENCH_UTIL_H_
#define RAPAR_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace rapar::benchutil {

// Wall-clock of one call, in milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

inline void Header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// One table row, each cell left-aligned in `width` columns. A cell as wide
// as its column or wider still gets one space before the next cell, so
// neighbouring cells never run together (the row then shifts right).
inline void Row(const std::vector<std::string>& cells, int width = 22) {
  for (const auto& c : cells) {
    std::printf("%-*s", width, c.c_str());
    if (c.size() >= static_cast<std::size_t>(width)) std::printf(" ");
  }
  std::printf("\n");
}

inline void Rule(std::size_t cells, int width = 22) {
  std::printf("%s\n",
              std::string(cells * static_cast<std::size_t>(width), '-')
                  .c_str());
}

}  // namespace rapar::benchutil

// Standard main: print the reproduction tables (defined per binary as
// `PrintReproduction()`), then run the registered benchmarks.
#define RAPAR_BENCH_MAIN()                                   \
  int main(int argc, char** argv) {                          \
    PrintReproduction();                                     \
    ::benchmark::Initialize(&argc, argv);                    \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) \
      return 1;                                              \
    ::benchmark::RunSpecifiedBenchmarks();                   \
    ::benchmark::Shutdown();                                 \
    return 0;                                                \
  }

#endif  // RAPAR_BENCH_BENCH_UTIL_H_
