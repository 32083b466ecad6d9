// Tests of the loc counter and the timing CSV merge tooling.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/timing.hpp"
#include "tools/loc.hpp"

using namespace toast;

TEST(Loc, BasicCounting) {
  const auto c = tools::count_cpp(
      "int main() {\n"
      "  // a comment\n"
      "\n"
      "  return 0;  // trailing comment still code\n"
      "}\n");
  EXPECT_EQ(c.code, 3);
  EXPECT_EQ(c.comment, 1);
  EXPECT_EQ(c.blank, 1);
}

TEST(Loc, BlockComments) {
  const auto c = tools::count_cpp(
      "/* block\n"
      "   comment */\n"
      "int x; /* inline */\n"
      "/* start\n"
      "   end */ int y;\n");
  EXPECT_EQ(c.comment, 3);  // two full-block lines + the "start" line
  EXPECT_EQ(c.code, 2);     // "int x" and the "end */ int y" line
}

TEST(Loc, CommentMarkersInStrings) {
  const auto c = tools::count_cpp(
      "const char* s = \"// not a comment\";\n"
      "const char* t = \"/* neither */\";\n");
  EXPECT_EQ(c.code, 2);
  EXPECT_EQ(c.comment, 0);
}

TEST(Loc, ManifestCoversAllKernelsAndImpls) {
  const auto manifest = tools::kernel_source_manifest();
  EXPECT_EQ(manifest.size(), 7u);  // stokes pair and template trio share files
  for (const auto& [kernel, impls] : manifest) {
    EXPECT_EQ(impls.size(), 3u) << kernel;
    for (const auto& [impl, files] : impls) {
      EXPECT_FALSE(files.empty()) << kernel << "/" << impl;
    }
  }
}

TEST(Loc, RealSourcesShowPaperOrdering) {
  // Figure 2/3's qualitative finding over this repository's own sources:
  // the OpenMP-target port is much longer than the CPU baseline
  // (duplicated loops + launch plumbing), and the array-program part of
  // the JAX port (the analogue of the paper's Python kernels) is shorter
  // than the CPU baseline.  The *full* JAX files are longer than Python
  // would be because C++ tracing needs marshalling boilerplate; see
  // EXPERIMENTS.md.
  const std::string root = std::string(TOASTCASE_SOURCE_DIR) + "/";
  int cpu = 0, omp = 0;
  for (const auto& [kernel, impls] : tools::kernel_source_manifest()) {
    for (const auto& f : impls.at("cpu")) cpu += tools::count_file(root + f).code;
    for (const auto& f : impls.at("omptarget")) omp += tools::count_file(root + f).code;
  }
  int jax_graph = 0;
  for (const auto& [kernel, entry] : tools::jax_graph_manifest()) {
    std::ifstream in(root + entry.first);
    std::stringstream buf;
    buf << in.rdbuf();
    for (const auto& fn : entry.second) {
      const auto c = tools::count_function(buf.str(), fn);
      EXPECT_GT(c.code, 0) << entry.first << ":" << fn;
      jax_graph += c.code;
    }
  }
  EXPECT_GT(cpu, 0);
  EXPECT_GT(static_cast<double>(omp) / cpu, 1.3);        // paper: 1.8x
  EXPECT_LT(static_cast<double>(jax_graph) / cpu, 1.0);  // paper: 0.8x
}

TEST(Loc, CountFunctionIsolatesBodies) {
  const std::string src =
      "int helper(int x) {\n  return x + 1;\n}\n"
      "int graph(int y) {\n  if (y) {\n    y = helper(y);\n  }\n"
      "  return y;\n}\n";
  EXPECT_EQ(tools::count_function(src, "helper").code, 3);
  EXPECT_EQ(tools::count_function(src, "graph").code, 6);
  EXPECT_EQ(tools::count_function(src, "missing").code, 0);
}

TEST(Timing, CsvRoundTrip) {
  accel::TimeLog log;
  log.add("kernel_a", 1.5);
  log.add("kernel_a", 0.5);
  log.add("kernel_b", 3.0);
  std::ostringstream out;
  core::write_timing_csv(log, out);
  std::istringstream in(out.str());
  const auto back = core::read_timing_csv(in);
  EXPECT_DOUBLE_EQ(back.seconds("kernel_a"), 2.0);
  EXPECT_EQ(back.calls("kernel_a"), 2);
  EXPECT_DOUBLE_EQ(back.seconds("kernel_b"), 3.0);
}

TEST(Timing, CompareProducesSpeedups) {
  accel::TimeLog cpu;
  cpu.add("k", 10.0);
  accel::TimeLog gpu;
  gpu.add("k", 2.0);
  gpu.add("extra", 1.0);
  const auto cmp = core::compare_timings({{"cpu", cpu}, {"gpu", gpu}});
  ASSERT_EQ(cmp.labels.size(), 2u);
  ASSERT_EQ(cmp.rows.at("k").size(), 2u);
  EXPECT_DOUBLE_EQ(cmp.rows.at("k")[0], 10.0);
  EXPECT_DOUBLE_EQ(cmp.rows.at("k")[1], 2.0);
  EXPECT_DOUBLE_EQ(cmp.rows.at("extra")[0], 0.0);
  const std::string csv = cmp.to_csv();
  EXPECT_NE(csv.find("speedup_gpu"), std::string::npos);
  EXPECT_NE(csv.find("k,10,2,5"), std::string::npos);
  EXPECT_FALSE(cmp.to_table().empty());
}

TEST(Timing, MergeLogsAcrossRanks) {
  accel::TimeLog a, b;
  a.add("k", 1.0);
  b.add("k", 2.0);
  b.add("other", 4.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.seconds("k"), 3.0);
  EXPECT_EQ(a.calls("k"), 2);
  EXPECT_DOUBLE_EQ(a.seconds("other"), 4.0);
  EXPECT_NEAR(a.total_seconds(), 7.0, 1e-12);
}

// ---------------------------------------------------------------------------
// The toast_timing_merge CLI.
// ---------------------------------------------------------------------------

namespace {

struct CliResult {
  int code = -1;
  std::string out;
};

/// A scratch file of this process, so tests running side by side never
/// share one.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + "timing_merge_" + std::to_string(getpid()) +
         "_" + name;
}

/// Runs toast_timing_merge with `args`; stdout is captured, stderr
/// discarded.
CliResult run_timing_merge(const std::string& args) {
  const std::string out = temp_path("stdout.txt");
  const int status =
      std::system((std::string(TOAST_TIMING_MERGE_BIN) + " " + args + " > " +
                   out + " 2> /dev/null")
                      .c_str());
  std::ifstream in(out);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(out.c_str());
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, text.str()};
}

}  // namespace

TEST(TimingMerge, NoArgumentsExitsTwo) {
  EXPECT_EQ(run_timing_merge("").code, 2);
}

TEST(TimingMerge, UnreadableOrMalformedCsvExitsOne) {
  const std::string good = temp_path("good.csv");
  accel::TimeLog log;
  log.add("k", 1.0);
  core::write_timing_csv(log, good);
  EXPECT_EQ(run_timing_merge(good + " " + temp_path("missing.csv")).code, 1);
  const std::string no_commas = temp_path("no_commas.csv");
  std::ofstream(no_commas) << "category,calls,seconds\nk 1 2.5\n";
  EXPECT_EQ(run_timing_merge(good + " " + no_commas).code, 1);
  const std::string bad_number = temp_path("bad_number.csv");
  std::ofstream(bad_number) << "category,calls,seconds\nk,one,2.5\n";
  EXPECT_EQ(run_timing_merge(bad_number).code, 1);
  for (const auto& f : {good, no_commas, bad_number}) {
    std::remove(f.c_str());
  }
}

TEST(TimingMerge, MergesTwoRunsLikeCompareTimings) {
  accel::TimeLog cpu;
  cpu.add("scan_map", 10.0);
  cpu.add("scan_map", 2.0);
  cpu.add("noise_weight", 3.0);
  accel::TimeLog gpu;
  gpu.add("scan_map", 1.5);
  gpu.add("noise_weight", 0.75);
  gpu.add("jit_compile", 0.5);
  const std::string a = temp_path("cpu.csv");
  const std::string b = temp_path("gpu.csv");
  core::write_timing_csv(cpu, a);
  core::write_timing_csv(gpu, b);

  const CliResult r = run_timing_merge(a + " " + b);
  ASSERT_EQ(r.code, 0);
  const auto cmp = core::compare_timings(
      {{a, core::read_timing_csv_file(a)}, {b, core::read_timing_csv_file(b)}});
  EXPECT_EQ(r.out, cmp.to_table() + "\nCSV:\n" + cmp.to_csv());
  // The speedup column: the first run's seconds over the second's.
  EXPECT_NE(r.out.find("scan_map,12,1.5,8"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("noise_weight,3,0.75,4"), std::string::npos) << r.out;
  std::remove(a.c_str());
  std::remove(b.c_str());
}
