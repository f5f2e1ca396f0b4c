// Child process of ObsLedger.PeakRssIsThisProcessImagesOwn: prints the
// peak resident set this fresh process image reports, then appends its run
// record to $ORP_RUN_LEDGER. Exits 0 when the record was written.
#include <cstdio>

#include "obs/bench/hw_counters.hpp"
#include "obs/ledger.hpp"

int main(int argc, char** argv) {
  orp::obs::ledger_capture_argv(argc, argv);
  std::printf("%lld\n", static_cast<long long>(orp::obs::bench::peak_rss_kb()));
  std::fflush(stdout);
  return orp::obs::append_run_ledger() ? 0 : 1;
}
