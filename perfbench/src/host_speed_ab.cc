// host_speed_ab: checks that the program's working set does not move the
// HostSpeed factor. Interleaves two arms 800 times: arm A does its
// unrelated work inside a 64 KB slice, arm B the same number of writes
// over a large ballast (default 64 MB, far beyond L2), as a program with a
// much larger working set would; each arm ends with HostSpeed::Sample.
// Interleaving cancels host drift, so the ratio of the arms' medians is
// the effect of the working set alone. Prints it for the timed (warm)
// kernel run and for the untimed first run, which starts cold.
//
//   .bench_build/perfbench/host_speed_ab [ballast_mb]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

int main(int argc, char** argv) {
  using perfbench::Quantile;
  const size_t mb = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 64;
  std::vector<uint64_t> ballast(mb << 17, 1);
  perfbench::HostSpeed speed;
  std::vector<double> warm[2], cold[2];
  uint64_t sink = 0;
  for (int r = 0; r < 800; ++r) {
    const int arm = r % 2;
    const size_t span = arm == 1 ? ballast.size() : 8192;
    for (size_t rep = 0, done = 0; done < ballast.size(); ++rep) {
      for (size_t i = 0; i < span; i += 8) {
        ballast[i] += rep;
        sink += ballast[i];
      }
      done += span;
    }
    const size_t mark = speed.mark();
    const double both_s = speed.Sample();
    const double warm_s = speed.sample_ns(mark) * 1e-9;
    warm[arm].push_back(warm_s);
    cold[arm].push_back(both_s - warm_s);
  }
  std::printf("ballast %zu MB: timed (warm) run B/A %.4f, untimed first "
              "(cold) run B/A %.4f [checksum %llu]\n",
              mb, Quantile(warm[1], 0.5) / Quantile(warm[0], 0.5),
              Quantile(cold[1], 0.5) / Quantile(cold[0], 0.5),
              static_cast<unsigned long long>(sink & 1));
  return 0;
}
