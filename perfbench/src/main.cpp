// Benchmark program. run.py builds it and calls:
//   perfbench prepare --cache <dir>
//       trains qilin into <dir> (the one-time prepare step)
//   perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --cache <dir> --out <dir>
//       measures one workload; the last stdout line is the JSON result

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "eval/model_zoo.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare --cache DIR\n"
               "       perfbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --cache DIR --out DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  perfbench::Options o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string a = argv[i], v = argv[i + 1];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stoi(v);
      else if (a == "--trace") o.trace = v == "1";
      else if (a == "--cache") o.cache_dir = v;
      else if (a == "--out") o.out_dir = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (o.cache_dir.empty()) return usage();

  if (cmd == "prepare") {
    llmfi::eval::Zoo zoo(o.cache_dir);
    zoo.get("qilin");
    return 0;
  }
  if (cmd != "run" || o.out_dir.empty() || o.seconds < 1) return usage();
  o.bin_dir = std::filesystem::canonical("/proc/self/exe").parent_path();

  perfbench::Result r;
  std::string provenance;
  int rc = 0;
  try {
    if (o.workload == "campaign-comp" || o.workload == "campaign-mem-detect") {
      rc = perfbench::run_campaign(o, r, provenance);
    } else if (o.workload == "serve-poisson") {
      rc = perfbench::run_serve(o, r, provenance);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  if (rc != 0) return rc;
  std::fprintf(stderr, "perfbench: provenance %s\n", provenance.c_str());
  std::ofstream(o.out_dir + "/perfbench-provenance-" + o.workload +
                (o.trace ? "-trace" : "") + ".json")
      << provenance << "\n";
  r.print();
  return 0;
}
