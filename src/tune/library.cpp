#include "tune/library.hpp"

#include <climits>

#include "obs/json.hpp"

namespace toast::tune {

namespace {

std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

std::string join(const std::string& dir, const std::string& rel) {
  if (!rel.empty() && rel.front() == '/') {
    return rel;  // absolute artifact path: use as-is
  }
  return dir.empty() ? rel : dir + "/" + rel;
}

std::vector<LibraryEntry> entries_from(const obs::json::Value& doc,
                                       const std::string& where,
                                       const std::string& base_dir) {
  const obs::json::Reader r(doc, where, "toastcase-schedule-library-v1",
                            {"entries"});
  std::vector<LibraryEntry> entries;
  r.objects("entries",
            {"workload", "backend", "nodes", "procs_per_node", "path"},
            [&](const obs::json::Reader& e) {
              LibraryEntry entry;
              entry.workload = e.string("workload");
              if (entry.workload.empty()) {
                e.fail("workload", "must not be empty");
              }
              entry.backend = e.string("backend", entry.backend);
              entry.nodes = e.integer("nodes", entry.nodes, 0, INT_MAX);
              entry.procs_per_node =
                  e.integer("procs_per_node", entry.procs_per_node, 0, INT_MAX);
              entry.path = e.string("path");
              entry.schedule =
                  config::ScheduleConfig::load_file(join(base_dir, entry.path));
              entries.push_back(std::move(entry));
            });
  return entries;
}

}  // namespace

ScheduleLibrary ScheduleLibrary::parse(const std::string& text,
                                       const std::string& base_dir) {
  ScheduleLibrary lib;
  lib.entries_ = entries_from(obs::json::Value::parse(text),
                              "schedule library", base_dir);
  return lib;
}

ScheduleLibrary ScheduleLibrary::load_file(const std::string& index_path) {
  ScheduleLibrary lib;
  lib.entries_ = entries_from(obs::json::load_file(index_path), index_path,
                              dir_of(index_path));
  return lib;
}

const LibraryEntry* ScheduleLibrary::lookup(const LibraryQuery& q) const {
  const LibraryEntry* best = nullptr;
  int best_score = -1;
  for (const LibraryEntry& e : entries_) {
    if (e.workload != q.workload) {
      continue;
    }
    int score = 0;
    if (!e.backend.empty()) {
      if (e.backend != q.backend) {
        continue;
      }
      ++score;
    }
    if (e.nodes != 0) {
      if (e.nodes != q.nodes) {
        continue;
      }
      ++score;
    }
    if (e.procs_per_node != 0) {
      if (e.procs_per_node != q.procs_per_node) {
        continue;
      }
      ++score;
    }
    // Strict >: ties keep the earliest entry (declaration order).
    if (score > best_score) {
      best = &e;
      best_score = score;
    }
  }
  return best;
}

const config::ScheduleConfig* library_lookup(const ScheduleLibrary& lib,
                                             const LibraryQuery& q) {
  const LibraryEntry* e = lib.lookup(q);
  return e == nullptr ? nullptr : &e->schedule;
}

}  // namespace toast::tune
