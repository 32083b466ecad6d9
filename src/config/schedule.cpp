#include "config/schedule.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "backend/manifest.hpp"
#include "obs/json.hpp"

namespace toast::config {

const char* to_string(Staging s) {
  switch (s) {
    case Staging::kPipelined:
      return "pipelined";
    case Staging::kNaive:
      return "naive";
  }
  return "unknown";
}

const char* to_string(CommMode m) {
  switch (m) {
    case CommMode::kModel:
      return "model";
    case CommMode::kEngine:
      return "engine";
  }
  return "unknown";
}

const char* to_string(CommAlgorithm a) {
  switch (a) {
    case CommAlgorithm::kRing:
      return "ring";
    case CommAlgorithm::kRecursive:
      return "recursive";
    case CommAlgorithm::kTree:
      return "tree";
  }
  return "unknown";
}

const char* to_string(SolverComm c) {
  switch (c) {
    case SolverComm::kStaged:
      return "staged";
    case SolverComm::kSync:
      return "sync";
    case SolverComm::kOverlap:
      return "overlap";
  }
  return "unknown";
}

Staging staging_from_string(const std::string& s) {
  if (s == "pipelined") return Staging::kPipelined;
  if (s == "naive") return Staging::kNaive;
  throw std::runtime_error("unknown staging mode: " + s);
}

CommMode comm_mode_from_string(const std::string& s) {
  if (s == "model") return CommMode::kModel;
  if (s == "engine") return CommMode::kEngine;
  throw std::runtime_error("unknown comm mode: " + s);
}

CommAlgorithm comm_algorithm_from_string(const std::string& s) {
  if (s == "ring") return CommAlgorithm::kRing;
  if (s == "recursive") return CommAlgorithm::kRecursive;
  if (s == "tree") return CommAlgorithm::kTree;
  throw std::runtime_error("unknown comm algorithm: " + s);
}

SolverComm solver_comm_from_string(const std::string& s) {
  if (s == "staged") return SolverComm::kStaged;
  if (s == "sync") return SolverComm::kSync;
  if (s == "overlap") return SolverComm::kOverlap;
  throw std::runtime_error("unknown solver async-comm mode: " + s);
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

using obs::json::Value;

void reject_unknown_keys(const Value& v, const std::string& where,
                         std::initializer_list<const char*> known) {
  for (const auto& [key, member] : v.object) {
    (void)member;
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      throw std::runtime_error(where + ": unknown key '" + key + "'");
    }
  }
}

/// Member `key` of `obj` (whose key path is `prefix`), or nullptr when
/// absent.  A member of another type is an error naming its key path.
const Value* member(const Value& obj, const std::string& where,
                    const std::string& prefix, const char* key,
                    Value::Type type, const char* type_name) {
  const Value* m = obj.find(key);
  if (m != nullptr && m->type != type) {
    throw std::runtime_error(where + ": " + prefix + key + " must be " +
                             type_name);
  }
  return m;
}

std::string string_at(const Value& obj, const std::string& where,
                      const std::string& prefix, const char* key,
                      const std::string& fallback) {
  const Value* m =
      member(obj, where, prefix, key, Value::Type::kString, "a string");
  return m != nullptr ? m->string : fallback;
}

bool bool_at(const Value& obj, const std::string& where,
             const std::string& prefix, const char* key, bool fallback) {
  const Value* m =
      member(obj, where, prefix, key, Value::Type::kBool, "a boolean");
  return m != nullptr ? m->boolean : fallback;
}

/// An integer in [lo, INT_MAX]: a fraction or an out-of-range number is
/// an error, never truncated.
int int_at(const Value& obj, const std::string& where,
           const std::string& prefix, const char* key, int fallback, int lo) {
  const Value* m =
      member(obj, where, prefix, key, Value::Type::kNumber, "a number");
  if (m == nullptr) {
    return fallback;
  }
  const double v = m->number;
  if (!(v >= lo && v <= std::numeric_limits<int>::max()) ||
      v != std::floor(v)) {
    throw std::runtime_error(where + ": " + prefix + key +
                             " must be an integer in [" + std::to_string(lo) +
                             ", " +
                             std::to_string(std::numeric_limits<int>::max()) +
                             "]");
  }
  return static_cast<int>(v);
}

ScheduleConfig config_from_value(const Value& doc, const std::string& where) {
  if (!doc.is_object()) {
    throw std::runtime_error(where + ": schedule config must be an object");
  }
  const Value* schema = doc.find("schema");
  if (schema == nullptr || schema->string != "toastcase-schedule-v1") {
    throw std::runtime_error(where +
                             ": expected schema toastcase-schedule-v1");
  }
  reject_unknown_keys(doc, where,
                      {"schema", "backend", "staging", "streams", "comm",
                       "solver", "shape", "device"});
  const auto section = [&](const char* key) {
    return member(doc, where, "", key, Value::Type::kObject, "an object");
  };

  ScheduleConfig cfg;
  cfg.backend = string_at(doc, where, "", "backend", cfg.backend);
  // Resolve eagerly so a bad slot name fails at parse time, not at use.
  (void)cfg.backend_id();
  if (const Value* staging = section("staging")) {
    reject_unknown_keys(*staging, where + ": staging",
                        {"mode", "prefetch", "evict"});
    cfg.staging.mode = staging_from_string(string_at(
        *staging, where, "staging.", "mode", to_string(cfg.staging.mode)));
    cfg.staging.prefetch =
        bool_at(*staging, where, "staging.", "prefetch", false);
    cfg.staging.evict = bool_at(*staging, where, "staging.", "evict", false);
  }
  cfg.streams = int_at(doc, where, "", "streams", 1, 1);
  if (const Value* comm = section("comm")) {
    reject_unknown_keys(*comm, where + ": comm",
                        {"mode", "algorithm", "chunk_bytes"});
    cfg.comm.mode = comm_mode_from_string(
        string_at(*comm, where, "comm.", "mode", to_string(cfg.comm.mode)));
    cfg.comm.algorithm = comm_algorithm_from_string(string_at(
        *comm, where, "comm.", "algorithm", to_string(cfg.comm.algorithm)));
    const Value* chunk = member(*comm, where, "comm.", "chunk_bytes",
                                Value::Type::kNumber, "a number");
    cfg.comm.chunk_bytes = chunk != nullptr ? chunk->number : 0.0;
    if (cfg.comm.chunk_bytes < 0.0) {
      throw std::runtime_error(where + ": comm.chunk_bytes must be >= 0");
    }
  }
  if (const Value* solver = section("solver")) {
    reject_unknown_keys(*solver, where + ": solver", {"async_comm"});
    cfg.solver.async_comm = solver_comm_from_string(
        string_at(*solver, where, "solver.", "async_comm",
                  to_string(cfg.solver.async_comm)));
  }
  if (const Value* shape = section("shape")) {
    reject_unknown_keys(*shape, where + ": shape",
                        {"nodes", "procs_per_node"});
    cfg.shape.nodes = int_at(*shape, where, "shape.", "nodes", 0, 0);
    cfg.shape.procs_per_node =
        int_at(*shape, where, "shape.", "procs_per_node", 0, 0);
  }
  if (const Value* device = section("device")) {
    reject_unknown_keys(*device, where + ": device",
                        {"mps", "jax_preallocate"});
    cfg.device.mps = bool_at(*device, where, "device.", "mps", true);
    cfg.device.jax_preallocate =
        bool_at(*device, where, "device.", "jax_preallocate", false);
  }
  return cfg;
}

}  // namespace

ScheduleConfig ScheduleConfig::parse(const std::string& text) {
  return config_from_value(Value::parse(text), "schedule config");
}

ScheduleConfig ScheduleConfig::load_file(const std::string& path) {
  return config_from_value(obs::json::load_file(path), path);
}

ScheduleConfig ScheduleConfig::from_value(const obs::json::Value& doc,
                                          const std::string& where) {
  return config_from_value(doc, where);
}

}  // namespace toast::config
