#include "config/schedule.hpp"

#include <cfloat>
#include <climits>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "backend/manifest.hpp"
#include "obs/json.hpp"

namespace toast::config {

namespace {

constexpr obs::json::Name<Staging> kStagingNames[] = {
    {"pipelined", Staging::kPipelined}, {"naive", Staging::kNaive}};
constexpr obs::json::Name<CommMode> kCommModeNames[] = {
    {"model", CommMode::kModel}, {"engine", CommMode::kEngine}};
constexpr obs::json::Name<CommAlgorithm> kCommAlgorithmNames[] = {
    {"ring", CommAlgorithm::kRing},
    {"recursive", CommAlgorithm::kRecursive},
    {"tree", CommAlgorithm::kTree}};
constexpr obs::json::Name<SolverComm> kSolverCommNames[] = {
    {"staged", SolverComm::kStaged},
    {"sync", SolverComm::kSync},
    {"overlap", SolverComm::kOverlap}};

}  // namespace

const char* to_string(Staging s) {
  return obs::json::name_of(kStagingNames, s);
}

const char* to_string(CommMode m) {
  return obs::json::name_of(kCommModeNames, m);
}

const char* to_string(CommAlgorithm a) {
  return obs::json::name_of(kCommAlgorithmNames, a);
}

const char* to_string(SolverComm c) {
  return obs::json::name_of(kSolverCommNames, c);
}

core::Backend ScheduleConfig::backend_id() const {
  for (std::size_t i = 0; i < backend::backend_count; ++i) {
    if (backend == backend::name_of(i)) {
      return backend::id_of(i);
    }
  }
  throw std::runtime_error("schedule config: unknown backend slot '" +
                           backend + "'");
}

void ScheduleConfig::set_backend(core::Backend b) {
  const std::size_t idx = backend::index_of(b);
  if (idx == backend::npos) {
    throw std::runtime_error("schedule config: backend not in manifest");
  }
  backend = backend::name_of(idx);
}

namespace {

/// %.17g like the bench JsonWriter: round-trips doubles exactly, so the
/// canonical serialization (and the hash over it) is stable.
std::string fmt_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void ScheduleConfig::write_json(std::ostream& out) const {
  out << "{\"schema\":\"toastcase-schedule-v1\""
      << ",\"backend\":\"" << obs::json::escape(backend) << "\""
      << ",\"staging\":{\"mode\":\"" << to_string(staging.mode) << "\""
      << ",\"prefetch\":" << (staging.prefetch ? "true" : "false")
      << ",\"evict\":" << (staging.evict ? "true" : "false") << "}"
      << ",\"streams\":" << streams
      << ",\"comm\":{\"mode\":\"" << to_string(comm.mode) << "\""
      << ",\"algorithm\":\"" << to_string(comm.algorithm) << "\""
      << ",\"chunk_bytes\":" << fmt_number(comm.chunk_bytes) << "}"
      << ",\"solver\":{\"async_comm\":\"" << to_string(solver.async_comm)
      << "\"}"
      << ",\"shape\":{\"nodes\":" << shape.nodes
      << ",\"procs_per_node\":" << shape.procs_per_node << "}"
      << ",\"device\":{\"mps\":" << (device.mps ? "true" : "false")
      << ",\"jax_preallocate\":"
      << (device.jax_preallocate ? "true" : "false") << "}}";
}

std::string ScheduleConfig::json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

void ScheduleConfig::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  write_json(out);
  out << "\n";
}

std::uint64_t ScheduleConfig::hash() const {
  // FNV-1a over the canonical serialization.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : json()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string ScheduleConfig::hash_hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash()));
  return buf;
}

namespace {

ScheduleConfig config_from_value(const obs::json::Value& doc,
                                 const std::string& where) {
  const obs::json::Reader r(doc, where, "toastcase-schedule-v1",
                            {"backend", "staging", "streams", "comm",
                             "solver", "shape", "device"});
  ScheduleConfig cfg;
  cfg.backend = r.string("backend", cfg.backend);
  // Resolve eagerly so a bad slot name fails at parse time, not at use.
  (void)cfg.backend_id();
  if (const auto s = r.object("staging", {"mode", "prefetch", "evict"})) {
    cfg.staging.mode = s->enumeration("mode", kStagingNames, cfg.staging.mode);
    cfg.staging.prefetch = s->boolean("prefetch", cfg.staging.prefetch);
    cfg.staging.evict = s->boolean("evict", cfg.staging.evict);
  }
  cfg.streams = r.integer("streams", cfg.streams, 1, INT_MAX);
  if (const auto c = r.object("comm", {"mode", "algorithm", "chunk_bytes"})) {
    cfg.comm.mode = c->enumeration("mode", kCommModeNames, cfg.comm.mode);
    cfg.comm.algorithm =
        c->enumeration("algorithm", kCommAlgorithmNames, cfg.comm.algorithm);
    cfg.comm.chunk_bytes =
        c->number("chunk_bytes", cfg.comm.chunk_bytes, 0.0, DBL_MAX);
  }
  if (const auto s = r.object("solver", {"async_comm"})) {
    cfg.solver.async_comm =
        s->enumeration("async_comm", kSolverCommNames, cfg.solver.async_comm);
  }
  if (const auto s = r.object("shape", {"nodes", "procs_per_node"})) {
    cfg.shape.nodes = s->integer("nodes", cfg.shape.nodes, 0, INT_MAX);
    cfg.shape.procs_per_node =
        s->integer("procs_per_node", cfg.shape.procs_per_node, 0, INT_MAX);
  }
  if (const auto d = r.object("device", {"mps", "jax_preallocate"})) {
    cfg.device.mps = d->boolean("mps", cfg.device.mps);
    cfg.device.jax_preallocate =
        d->boolean("jax_preallocate", cfg.device.jax_preallocate);
  }
  return cfg;
}

}  // namespace

ScheduleConfig ScheduleConfig::parse(const std::string& text) {
  return config_from_value(obs::json::Value::parse(text), "schedule config");
}

ScheduleConfig ScheduleConfig::load_file(const std::string& path) {
  return config_from_value(obs::json::load_file(path), path);
}

ScheduleConfig ScheduleConfig::from_value(const obs::json::Value& doc,
                                          const std::string& where) {
  return config_from_value(doc, where);
}

}  // namespace toast::config
