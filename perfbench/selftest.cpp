// Self-test of the benchmark driver's own machinery.
//
//   perfbench_selftest [<checkout root>]
//
// Checks that the virtual digest sees a single flipped TimeLog bit, and
// that the --seed argument changes the job seeds but never the op list or
// the op count.  Exits 0 when every check passes, 1 otherwise.

#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "driver.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) {
    ++failures;
  }
}

double flip_lowest_bit(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1u;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

toast::mpisim::JobResult sample_job(double kernel_seconds) {
  toast::mpisim::JobResult r;
  r.runtime = 20.345;
  r.host_seconds = 3.5;
  r.device_seconds = 12.25;
  r.transfer_seconds = 0.75;
  r.comm_seconds = 0.125;
  r.rank_log.add("accel_data_update_device", 0.375);
  r.rank_log.add("scan_map", kernel_seconds);
  r.plan_counters = {{"plan_cache_hits", 3.0}, {"plan_cache_misses", 1.0}};
  return r;
}

void digest_tests() {
  const double s = 1.0625;
  const auto base = perfbench::job_digest(sample_job(s));
  check(base == perfbench::job_digest(sample_job(s)),
        "digest is a pure function of the result");
  check(base != perfbench::job_digest(sample_job(flip_lowest_bit(s))),
        "flipping one TimeLog bit changes the digest");

  auto r = sample_job(s);
  r.rank_log.add("scan_map", 0.0);  // one more call, same seconds
  check(base != perfbench::job_digest(r),
        "a TimeLog call count changes the digest");
  r = sample_job(s);
  r.runtime = flip_lowest_bit(r.runtime);
  check(base != perfbench::job_digest(r), "runtime is covered");
  r = sample_job(s);
  r.comm_seconds = flip_lowest_bit(r.comm_seconds);
  check(base != perfbench::job_digest(r), "comm seconds are covered");
  r = sample_job(s);
  r.plan_counters["plan_cache_hits"] = 4.0;
  check(base != perfbench::job_digest(r), "plan counters are covered");
}

void seed_tests(const std::string& root) {
  check(perfbench::op_seed(1, 0) != perfbench::op_seed(1, 1) &&
            perfbench::op_seed(1, 0) != perfbench::op_seed(2, 0),
        "op seeds differ by index and by workload seed");
  for (const auto& name : perfbench::workload_names()) {
    const auto a = perfbench::make_workload(name, perfbench::kDefaultSeed, root);
    const auto b = perfbench::make_workload(name, 7, root);
    bool same_ops = a.ops.size() == b.ops.size() && !a.ops.empty();
    bool seeds_differ = true;
    std::set<std::uint64_t> distinct;
    for (std::size_t i = 0; same_ops && i < a.ops.size(); ++i) {
      same_ops = a.ops[i].name == b.ops[i].name &&
                 a.ops[i].kind == b.ops[i].kind;
      if (a.ops[i].kind != perfbench::OpKind::kSolve) {
        seeds_differ = seeds_differ && a.ops[i].job.seed != b.ops[i].job.seed;
        distinct.insert(a.ops[i].job.seed);
      }
    }
    check(same_ops, name + ": the seed leaves the op list and count alone");
    check(seeds_differ, name + ": the seed changes every job seed");
    if (name == "destripe") {
      const auto signal = [](const perfbench::Workload& w) {
        const auto f = w.observations.at(0).field("signal").f64();
        return std::vector<double>(f.begin(), f.end());
      };
      check(signal(a) != signal(b), name + ": the seed changes the inputs");
    } else {
      check(distinct.size() == a.ops.size(),
            name + ": every job has its own seed");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : ".";
  try {
    digest_tests();
    seed_tests(root);
  } catch (const std::exception& e) {
    std::printf("FAIL threw: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", failures == 0 ? "all checks passed" : "checks FAILED");
  return failures == 0 ? 0 : 1;
}
