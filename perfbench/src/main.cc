// Benchmark program: runs one workload and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}. Built and invoked
// by perfbench/run.py; see perfbench/README.md.
//
//   perfbench --workload=csvm_local|routed_hot|paper_table1 --seed=N
//             --seconds=S --trace=0|1 --work-dir=DIR [--tiny] [--break-digest]
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--tiny") {
      args->tiny = true;
    } else if (key == "--break-digest") {
      args->break_digest = true;
    } else {
      std::cerr << "unknown argument " << a << "\n";
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!ParseArgs(argc, argv, &args)) {
      std::cerr << "usage: perfbench --workload=W --seed=N --seconds=S "
                   "--trace=0|1 --work-dir=DIR [--tiny] [--break-digest]\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "bad argument: " << e.what() << "\n";
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  std::cout << "workload " << args.workload << " seed " << args.seed
            << " seconds " << args.seconds << " trace " << args.trace
            << " clients " << perfbench::kClients << "\n";

  perfbench::Report report;
  int rc = 0;
  if (args.workload == "csvm_local") {
    rc = perfbench::RunCsvmLocal(args, &report);
  } else if (args.workload == "routed_hot") {
    rc = perfbench::RunRoutedHot(args, &report);
  } else if (args.workload == "paper_table1") {
    rc = perfbench::RunPaperTable1(args, &report);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  if (rc != 0) return rc;
  std::cout << report.Json() << std::endl;
  return report.correct() ? 0 : 1;
}
