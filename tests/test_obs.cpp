// Tests for the span tracer and its exporters: nested-span arithmetic,
// the TimeLog aggregation view, and the JSON export round-trips.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "accel/sim_device.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace {

using toast::accel::VirtualClock;
using toast::accel::WorkEstimate;
using toast::obs::ScopedSpan;
using toast::obs::Span;
using toast::obs::SpanId;
using toast::obs::Tracer;
namespace json = toast::obs::json;

// --- span structure --------------------------------------------------------

TEST(Tracer, NestedSpanTimingArithmetic) {
  VirtualClock clock;
  Tracer tracer(&clock);

  const SpanId outer = tracer.begin("outer", "phase");
  clock.advance(1.0);
  const SpanId inner = tracer.begin("inner", "phase");
  clock.advance(2.0);
  tracer.record("leaf", "kernel", 2.0);  // ends at now(), lasted 2 s
  tracer.end(inner);
  clock.advance(0.5);
  tracer.end(outer);

  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);

  const Span& s_outer = spans[0];
  const Span& s_inner = spans[1];
  const Span& s_leaf = spans[2];

  EXPECT_DOUBLE_EQ(s_outer.start, 0.0);
  EXPECT_DOUBLE_EQ(s_outer.duration, 3.5);
  EXPECT_DOUBLE_EQ(s_inner.start, 1.0);
  EXPECT_DOUBLE_EQ(s_inner.duration, 2.0);
  EXPECT_DOUBLE_EQ(s_leaf.start, 1.0);
  EXPECT_DOUBLE_EQ(s_leaf.duration, 2.0);

  // Parent / depth bookkeeping.
  EXPECT_EQ(s_outer.parent, toast::obs::kInvalidSpan);
  EXPECT_EQ(s_inner.parent, 0);
  EXPECT_EQ(s_leaf.parent, 1);
  EXPECT_EQ(s_outer.depth, 0);
  EXPECT_EQ(s_inner.depth, 1);
  EXPECT_EQ(s_leaf.depth, 2);

  // Exclusive time: outer minus its direct child.
  EXPECT_DOUBLE_EQ(tracer.self_seconds(0), 1.5);
  EXPECT_DOUBLE_EQ(tracer.self_seconds(1), 0.0);
  EXPECT_EQ(tracer.open_depth(), 0u);
}

TEST(Tracer, EndClosesAbandonedChildren) {
  VirtualClock clock;
  Tracer tracer(&clock);

  const SpanId outer = tracer.begin("outer", "phase");
  tracer.begin("forgotten", "phase");
  clock.advance(1.0);
  tracer.end(outer);  // must pop "forgotten" too

  EXPECT_EQ(tracer.open_depth(), 0u);
  EXPECT_DOUBLE_EQ(tracer.spans()[1].duration, 1.0);
}

TEST(Tracer, ScopedSpanRaii) {
  VirtualClock clock;
  Tracer tracer(&clock);
  {
    ScopedSpan scope(tracer, "scope", "phase", "cpu");
    clock.advance(2.5);
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_DOUBLE_EQ(tracer.spans()[0].duration, 2.5);
  EXPECT_EQ(tracer.spans()[0].backend, "cpu");
  EXPECT_FALSE(tracer.spans()[0].logged);
}

// --- TimeLog aggregation view ---------------------------------------------

TEST(Tracer, TimelogViewMatchesLoggedSpans) {
  VirtualClock clock;
  Tracer tracer(&clock);

  // Structural spans must NOT enter the TimeLog view.
  const SpanId scope = tracer.begin("pipeline", "pipeline");
  clock.advance(1.0);
  tracer.record("kern_a", "kernel", 1.0, "omptarget");
  clock.advance(0.5);
  tracer.record("kern_a", "kernel", 0.5, "omptarget");
  clock.advance(2.0);
  tracer.record("kern_b", "kernel", 2.0, "omptarget");
  tracer.end(scope);

  const auto log = tracer.timelog();
  EXPECT_DOUBLE_EQ(log.seconds("kern_a"), 1.5);
  EXPECT_EQ(log.calls("kern_a"), 2);
  EXPECT_DOUBLE_EQ(log.seconds("kern_b"), 2.0);
  EXPECT_EQ(log.calls("kern_b"), 1);
  EXPECT_DOUBLE_EQ(log.seconds("pipeline"), 0.0);

  // Convenience accessors agree with the view.
  EXPECT_DOUBLE_EQ(tracer.seconds("kern_a"), log.seconds("kern_a"));
  EXPECT_EQ(tracer.calls("kern_b"), log.calls("kern_b"));
}

TEST(Tracer, DeviceSinkEmitsDeviceSpans) {
  VirtualClock clock;
  Tracer tracer(&clock);
  toast::accel::SimDevice device;
  device.set_trace_sink(&tracer);

  clock.advance(0.25);
  WorkEstimate w;
  w.flops = 1e9;
  device.note_execution(w, 0.25);
  device.note_transfer(4096.0, 0.01, /*to_device=*/true);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const Span& exec = tracer.spans()[0];
  EXPECT_EQ(exec.name, "device_exec");
  EXPECT_TRUE(exec.device);
  EXPECT_FALSE(exec.logged);
  EXPECT_TRUE(exec.has_work);
  EXPECT_DOUBLE_EQ(exec.work.flops, 1e9);

  const Span& h2d = tracer.spans()[1];
  EXPECT_EQ(h2d.name, "h2d_transfer");
  EXPECT_DOUBLE_EQ(h2d.counters.at("bytes"), 4096.0);
  EXPECT_DOUBLE_EQ(device.total_transfer_bytes(), 4096.0);
}

// --- aggregation + export round-trips -------------------------------------

Tracer make_populated_tracer(VirtualClock& clock) {
  Tracer tracer(&clock);
  WorkEstimate w;
  w.flops = 2e9;
  w.bytes_read = 1e6;
  w.bytes_written = 5e5;
  w.launches = 3;

  const SpanId scope = tracer.begin("pipeline", "pipeline", "omptarget");
  clock.advance(1.0);
  const SpanId k1 = tracer.record("kern", "kernel", 1.0, "omptarget", &w);
  tracer.add_counter(k1, "peak_temp_bytes", 1e5);
  clock.advance(0.5);
  const SpanId k2 = tracer.record("kern", "kernel", 0.5, "omptarget", &w);
  tracer.add_counter(k2, "peak_temp_bytes", 3e5);
  clock.advance(0.125);
  tracer.record("h2d", "transfer", 0.125, "omptarget");
  tracer.end(scope);
  return tracer;
}

TEST(Export, CounterAggregationMatchesTimelog) {
  VirtualClock clock;
  const Tracer tracer = make_populated_tracer(clock);

  const auto rows = toast::obs::aggregate_metrics(tracer.spans());
  const auto log = tracer.timelog();

  // Only the logged spans aggregate; calls/seconds match the TimeLog.
  ASSERT_EQ(rows.size(), 2u);
  const auto& kern = rows.at("kern");
  EXPECT_EQ(kern.calls, log.calls("kern"));
  EXPECT_DOUBLE_EQ(kern.seconds, log.seconds("kern"));
  EXPECT_DOUBLE_EQ(kern.seconds, 1.5);
  // WorkEstimate fields sum across calls.
  EXPECT_DOUBLE_EQ(kern.flops, 4e9);
  EXPECT_DOUBLE_EQ(kern.bytes_read, 2e6);
  EXPECT_DOUBLE_EQ(kern.bytes_written, 1e6);
  EXPECT_DOUBLE_EQ(kern.launches, 6.0);
  // Extra counters sum too.
  EXPECT_DOUBLE_EQ(kern.counters.at("peak_temp_bytes"), 4e5);
  EXPECT_DOUBLE_EQ(rows.at("h2d").seconds, log.seconds("h2d"));
}

TEST(Export, MetricsJsonRoundTrip) {
  VirtualClock clock;
  const Tracer tracer = make_populated_tracer(clock);

  std::ostringstream out;
  toast::obs::write_metrics_json(tracer.spans(), out,
                                 {{"benchmark", "unit-test"}});
  const json::Value doc = json::Value::parse(out.str());
  EXPECT_EQ(doc.at("schema").string, "toastcase-metrics-v1");
  EXPECT_EQ(doc.at("meta").at("benchmark").string, "unit-test");

  const auto rows = toast::obs::read_metrics_json(doc);
  const auto expect = toast::obs::aggregate_metrics(tracer.spans());
  ASSERT_EQ(rows.size(), expect.size());
  for (const auto& [name, row] : expect) {
    const auto& got = rows.at(name);
    EXPECT_EQ(got.calls, row.calls) << name;
    EXPECT_DOUBLE_EQ(got.seconds, row.seconds) << name;
    EXPECT_DOUBLE_EQ(got.flops, row.flops) << name;
    EXPECT_DOUBLE_EQ(got.bytes_read, row.bytes_read) << name;
    EXPECT_DOUBLE_EQ(got.bytes_written, row.bytes_written) << name;
    EXPECT_DOUBLE_EQ(got.launches, row.launches) << name;
    EXPECT_EQ(got.counters, row.counters) << name;
  }
  EXPECT_DOUBLE_EQ(doc.at("total_seconds").number, 1.625);
}

TEST(Export, MetricsJsonReaderIsStrict) {
  // An out-of-range call count must not wrap through an integer cast,
  // nor a string seconds value read as 0: both fail naming the file,
  // the category and the key.
  const auto error = [](const std::string& categories) {
    try {
      toast::obs::read_metrics_json(
          json::Value::parse(R"({"schema": "toastcase-metrics-v1",
                                 "categories": {"k": )" +
                             categories + "}}"),
          "m.json");
    } catch (const json::ParseError& e) {
      return std::string(e.what());
    }
    return std::string("parsed");
  };
  EXPECT_NE(error(R"({"calls": 1e30, "seconds": "2"})")
                .find("m.json: 'categories.k.calls' must be an integer"),
            std::string::npos);
  EXPECT_NE(error(R"({"calls": 1, "seconds": "2"})")
                .find("'categories.k.seconds' must be a number"),
            std::string::npos);
  for (const char* bad :
       {R"({"calls": -1})", R"({"calls": 1.5})",
        R"({"calls": 9007199254740994})", R"({"seconds": -1e-9})",
        R"({"flops": -1})", R"({"launches": true})", R"({"bytes_h2d": "10"})",
        R"({"peak": null})", "[]", "3"}) {
    EXPECT_NE(error(bad).find("'categories.k"), std::string::npos) << bad;
  }
  // Open category names stay accepted.
  EXPECT_EQ(error(R"({"calls": 1}, "extra": {})"), "parsed");
  // Open counters stay accepted as numbers of either sign.
  const auto rows = toast::obs::read_metrics_json(json::Value::parse(
      R"({"schema": "toastcase-metrics-v1",
          "categories": {"k": {"calls": 9007199254740992, "skew": -2.5}}})"));
  EXPECT_EQ(rows.at("k").calls, 9007199254740992L);
  EXPECT_DOUBLE_EQ(rows.at("k").counters.at("skew"), -2.5);
  EXPECT_THROW(toast::obs::read_metrics_json(json::Value::parse(
                   R"({"schema": "toastcase-metrics-v1"})")),
               json::ParseError);
}

TEST(Export, ChromeTraceRoundTrip) {
  VirtualClock clock;
  const Tracer tracer = make_populated_tracer(clock);

  std::ostringstream out;
  toast::obs::write_chrome_trace(tracer.spans(), out, "unit-test");
  const json::Value doc = json::Value::parse(out.str());

  const auto& events = doc.at("traceEvents").array;
  // 3 metadata events + one "X" event per span.
  ASSERT_EQ(events.size(), 3u + tracer.spans().size());
  EXPECT_EQ(events[0].at("ph").string, "M");
  EXPECT_EQ(events[0].at("args").at("name").string, "unit-test");

  // Timestamps are microseconds on the virtual timeline.
  std::size_t i = 3;
  for (const auto& span : tracer.spans()) {
    const json::Value& ev = events[i++];
    EXPECT_EQ(ev.at("ph").string, "X");
    EXPECT_EQ(ev.at("name").string, span.name);
    EXPECT_NEAR(ev.at("ts").number, span.start * 1e6, 1e-9);
    EXPECT_NEAR(ev.at("dur").number, span.duration * 1e6, 1e-9);
  }
}

TEST(Export, MetricsCsvHasOneRowPerCategory) {
  VirtualClock clock;
  const Tracer tracer = make_populated_tracer(clock);

  std::ostringstream out;
  toast::obs::write_metrics_csv(tracer.spans(), out);
  const std::string csv = out.str();
  int lines = 0;
  for (const char c : csv) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 3);  // header + kern + h2d
  EXPECT_NE(csv.find("category,calls,seconds"), std::string::npos);
  EXPECT_NE(csv.find("kern,2,1.5"), std::string::npos);
}

// --- json parser edge cases ------------------------------------------------

TEST(Json, ParsesEscapesAndNumbers) {
  const json::Value v = json::Value::parse(
      R"({"s":"a\"b\\c\ndA","n":-1.5e3,"t":true,"z":null,"a":[1,2]})");
  EXPECT_EQ(v.at("s").string, "a\"b\\c\ndA");
  EXPECT_DOUBLE_EQ(v.at("n").number, -1500.0);
  EXPECT_TRUE(v.at("t").boolean);
  EXPECT_TRUE(v.at("z").is_null());
  ASSERT_EQ(v.at("a").array.size(), 2u);
}

TEST(Json, ThrowsOnMalformedInput) {
  EXPECT_THROW(json::Value::parse("{"), json::ParseError);
  EXPECT_THROW(json::Value::parse("[1,]"), json::ParseError);
  EXPECT_THROW(json::Value::parse("{\"a\":1} trailing"), json::ParseError);
  EXPECT_THROW(json::Value::parse(""), json::ParseError);
}

TEST(Json, ThrowsOnEveryTruncatedPrefix) {
  // Cut a representative document at every byte: the parser must throw a
  // ParseError for each prefix, never crash or silently accept (fault
  // plans and metrics files are loaded through this path).
  const std::string full = R"({"a":[1,2.5e-3,"x\n"],"b":{"c":true}})";
  for (std::size_t n = 0; n < full.size(); ++n) {
    EXPECT_THROW(json::Value::parse(full.substr(0, n)), json::ParseError)
        << "prefix length " << n;
  }
  EXPECT_NO_THROW(json::Value::parse(full));
}

TEST(Json, NumberOrFallsBackOnWrongTypes) {
  const json::Value v = json::Value::parse(
      R"({"s":"12","b":true,"z":null,"o":{"n":1},"a":[1],"n":2.5})");
  EXPECT_DOUBLE_EQ(v.number_or("s", -1.0), -1.0);  // string, not coerced
  EXPECT_DOUBLE_EQ(v.number_or("b", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(v.number_or("z", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(v.number_or("o", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(v.number_or("a", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 7.0), 7.0);
  EXPECT_DOUBLE_EQ(v.number_or("n", -1.0), 2.5);
}

TEST(Json, IntegerOrRangeChecksBeforeTheCast) {
  const json::Value v = json::Value::parse(
      R"({"n":-3,"big":9007199254740992,"huge":1e30,"frac":2.5,"s":"1"})");
  EXPECT_EQ(v.integer_or("n", 0), -3);
  EXPECT_EQ(v.integer_or("big", 0), std::int64_t{1} << 53);
  EXPECT_EQ(v.integer_or("missing", 7), 7);
  for (const char* key : {"huge", "frac", "s"}) {
    try {
      v.integer_or(key, 0);
      ADD_FAILURE() << key << " was accepted";
    } catch (const json::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("must be an integer"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Json, RejectsNestingDeeperThanTheLimit) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(json::Value::parse(nested(256)));
  EXPECT_THROW(json::Value::parse(nested(257)), json::ParseError);
  // Deep enough to overflow the stack without the limit.
  EXPECT_THROW(json::Value::parse(nested(200000)), json::ParseError);
  EXPECT_THROW(json::Value::parse(std::string(200000, '{')),
               json::ParseError);
}

TEST(Json, RejectsDuplicateKeys) {
  EXPECT_THROW(json::Value::parse(R"({"a":1,"a":2})"), json::ParseError);
  EXPECT_THROW(json::Value::parse(R"({"o":{"k":true,"k":true}})"),
               json::ParseError);
  // The same key in different objects is fine.
  const json::Value v = json::Value::parse(R"({"a":1,"o":{"a":2}})");
  EXPECT_DOUBLE_EQ(v.at("a").number, 1.0);
  EXPECT_DOUBLE_EQ(v.at("o").at("a").number, 2.0);
}

TEST(Json, RejectsNumbersBeyondDoubleRange) {
  EXPECT_THROW(json::Value::parse("[1e999]"), json::ParseError);
  EXPECT_THROW(json::Value::parse(R"({"x":-1e999})"), json::ParseError);
  const json::Value v =
      json::Value::parse("[1.7976931348623157e308, 1e-999]");
  EXPECT_EQ(v.array[0].number, 1.7976931348623157e308);
  EXPECT_EQ(v.array[1].number, 0.0);  // underflow rounds to zero
}

TEST(Json, ParsesEveryCheckedInBenchDocument) {
  // Fault plans, policies, schedules and service specs are read through
  // this parser: none of its rejections may fire on a real input.
  namespace fs = std::filesystem;
  int parsed = 0;
  for (const auto& entry : fs::recursive_directory_iterator(
           fs::path(TOASTCASE_SOURCE_DIR) / "bench")) {
    if (entry.path().extension() != ".json") {
      continue;
    }
    EXPECT_NO_THROW(json::load_file(entry.path().string()))
        << entry.path();
    ++parsed;
  }
  EXPECT_GT(parsed, 0);
}

TEST(Export, FaultCounterRoundTrip) {
  // The recovery layer's fault_* spans and their counters must survive
  // the metrics JSON round trip: `toast-trace faults` and the chaos CI
  // read them back from disk.
  VirtualClock clock;
  Tracer tracer(&clock);
  const SpanId retry = tracer.record("fault_retry_launch", "fault", 3.0e-4);
  tracer.add_counter(retry, "failures", 2.0);
  const SpanId fallback = tracer.record("fault_fallback", "fault", 0.0);
  tracer.add_counter(fallback, "kernel_noise_weight", 1.0);
  tracer.add_counter(fallback, "reason_persistent_fault", 1.0);

  std::ostringstream out;
  toast::obs::write_metrics_json(tracer.spans(), out);
  const auto rows =
      toast::obs::read_metrics_json(json::Value::parse(out.str()));
  EXPECT_DOUBLE_EQ(rows.at("fault_retry_launch").counters.at("failures"),
                   2.0);
  EXPECT_DOUBLE_EQ(rows.at("fault_retry_launch").seconds, 3.0e-4);
  EXPECT_DOUBLE_EQ(
      rows.at("fault_fallback").counters.at("kernel_noise_weight"), 1.0);
  EXPECT_DOUBLE_EQ(
      rows.at("fault_fallback").counters.at("reason_persistent_fault"), 1.0);
}

// --- toast-trace CLI ---------------------------------------------------------

/// Runs `toast-trace <args>`; returns its exit code and its stderr.
std::pair<int, std::string> run_toast_trace(const std::string& args) {
  const std::string err = testing::TempDir() + "toast_trace.err";
  const int status = std::system(
      (std::string(TOAST_TRACE_BIN) + " " + args + " 2> " + err).c_str());
  std::ifstream in(err);
  std::stringstream text;
  text << in.rdbuf();
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, text.str()};
}

TEST(ToastTrace, LanesRejectsATidNoIntegerHolds) {
  const std::string path = testing::TempDir() + "huge_tid.json";
  std::ofstream(path) << R"({"traceEvents": [)"
                      << R"({"ph": "X", "name": "k", "tid": 1e30,)"
                      << R"( "ts": 0, "dur": 1}]})";
  const auto [code, err] = run_toast_trace("lanes " + path);
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("'tid' must be an integer"), std::string::npos) << err;
}

}  // namespace
