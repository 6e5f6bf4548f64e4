// Reproduces Fig. 12: weighted average response time across workload
// mixes — Browsing (read-only), Bidding, and the bidding mix with write
// transactions scaled 10x and 100x — for the NoSE / Normalized / Expert
// schemas. NoSE advises each mix on its own (Advisor::Recommend); the
// baselines are fixed.
//
//   fig12_mixes [--json FILE]
//
// --json appends one nose-bench-v1 record per mix to FILE.
//
// Environment: NOSE_RUBIS_SCALE (default 0.25), NOSE_FIG12_TRANSACTIONS
// (default 1500 sampled transactions per mix).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/rubis_driver.h"
#include "util/rng.h"

namespace nose::bench {
namespace {

/// Weight of `tx` under a mix.
double TxWeight(const rubis::Transaction& tx, const std::string& mix) {
  if (mix == rubis::kBrowsingMix) return tx.browsing_weight;
  double w = tx.bidding_weight;
  if (tx.is_write && mix == rubis::kWrite10xMix) w *= 10.0;
  if (tx.is_write && mix == rubis::kWrite100xMix) w *= 100.0;
  return w;
}

int Main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: fig12_mixes [--json FILE]\n");
      return 2;
    }
  }
  const char* env = std::getenv("NOSE_FIG12_TRANSACTIONS");
  const int samples = env != nullptr ? std::atoi(env) : 1500;

  BenchJsonWriter json;
  if (!json_path.empty() && !json.Open(json_path, "fig12_mixes")) {
    return 1;
  }

  RubisBench bench;
  std::printf("Fig. 12 — weighted average response time per workload mix "
              "(%d sampled transactions each)\n\n",
              samples);

  const std::vector<std::pair<std::string, std::string>> mixes = {
      {"Browsing", rubis::kBrowsingMix},
      {"Bidding", rubis::kBiddingMix},
      {"10x", rubis::kWrite10xMix},
      {"100x", rubis::kWrite100xMix},
  };

  std::printf("%-10s %12s %12s %12s   (avg simulated ms/transaction)\n",
              "Mix", "NoSE", "Normalized", "Expert");

  for (const auto& [label, mix] : mixes) {
    // Cumulative transaction distribution for this mix.
    std::vector<const rubis::Transaction*> txs;
    std::vector<double> cdf;
    double total = 0.0;
    for (const rubis::Transaction& tx : rubis::Transactions()) {
      const double w = TxWeight(tx, mix);
      if (w <= 0.0) continue;
      total += w;
      txs.push_back(&tx);
      cdf.push_back(total);
    }

    auto nose = bench.MakeNose(mix);
    auto normalized = bench.MakeNormalized(mix);
    auto expert = bench.MakeExpert(mix);
    SchemaUnderTest* suts[3] = {nose.get(), normalized.get(), expert.get()};

    double avg[3] = {0, 0, 0};
    for (int s = 0; s < 3; ++s) {
      Rng pick(0xF16'12);  // identical transaction stream per schema
      rubis::ParamGenerator gen(&bench.data(), 0xF16'12 + 31 * s);
      double sum = 0.0;
      for (int i = 0; i < samples; ++i) {
        const double u = pick.NextDouble() * total;
        size_t t = 0;
        while (t + 1 < cdf.size() && cdf[t] < u) ++t;
        sum += bench.RunTransaction(suts[s], *txs[t], &gen);
      }
      avg[s] = sum / samples;
    }
    std::printf("%-10s %12.3f %12.3f %12.3f\n", label.c_str(), avg[0], avg[1],
                avg[2]);
    json.Instance(mix)
        .Metric("samples", static_cast<double>(samples))
        .Metric("nose_ms", avg[0])
        .Metric("normalized_ms", avg[1])
        .Metric("expert_ms", avg[2]);
  }
  std::printf(
      "\npaper shape check: NoSE wins Browsing/Bidding/10x; under 100x the "
      "Expert schema closes in (it shares support work NoSE re-fetches).\n");

  json.Close();
  return 0;
}

}  // namespace
}  // namespace nose::bench

int main(int argc, char** argv) { return nose::bench::Main(argc, argv); }
