#pragma once
// The benchmark's workloads. Each fills `r` with every end-to-end metric
// (untraced run) or every per-layer metric (traced run), counts attempted
// and failed operations from its correctness gate, and sets `provenance`.

#include <string>

#include "util.h"

namespace perfbench {

// campaign-comp, campaign-mem-detect (campaign.cpp).
int run_campaign(const Options& o, Result& r, std::string& provenance);

// serve-poisson (serve.cpp).
int run_serve(const Options& o, Result& r, std::string& provenance);

}  // namespace perfbench
